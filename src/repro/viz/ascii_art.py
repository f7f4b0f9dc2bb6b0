"""ASCII renderings for quick flow inspection in a terminal."""

from __future__ import annotations

from repro.groute import GlobalRouter

#: utilization thresholds and their glyphs, dense to sparse
_LEVELS = ((0.9, "#"), (0.7, "+"), (0.4, "."), (0.0, " "))


def congestion_heatmap(router: GlobalRouter) -> str:
    """Render the GCell congestion map (north up, one char per GCell)."""
    cmap = router.graph.congestion_map()
    lines = []
    for gy in reversed(range(cmap.shape[1])):
        row = []
        for gx in range(cmap.shape[0]):
            value = cmap[gx, gy]
            for threshold, glyph in _LEVELS:
                if value > threshold or threshold <= 0.0:
                    row.append(glyph)
                    break
        lines.append("|" + "".join(row) + "|")
    legend = "legend: '#'>90%  '+'>70%  '.'>40%  ' '<=40% utilization"
    return "\n".join(lines + [legend])


def layer_usage_table(router: GlobalRouter) -> str:
    """Per-layer wire usage, capacity, and via counts."""
    graph = router.graph
    lines = [
        f"{'layer':<8}{'dir':>4}{'used':>10}{'capacity':>10}{'util%':>8}{'vias':>8}"
    ]
    for layer in graph.tech.layers:
        used = float(graph.wire_usage[layer.index].sum())
        cap = float(graph.wire_capacity[layer.index].sum())
        vias = (
            int(graph.via_usage[layer.index].sum())
            if layer.index < graph.num_layers - 1
            else 0
        )
        util = 100.0 * used / cap if cap else 0.0
        direction = "H" if layer.is_horizontal else "V"
        lines.append(
            f"{layer.name:<8}{direction:>4}{used:>10.0f}{cap:>10.0f}"
            f"{util:>8.1f}{vias:>8}"
        )
    return "\n".join(lines)
