"""A minimal SVG die plot (no external dependencies)."""

from __future__ import annotations

from repro.db import Design
from repro.groute import GlobalRouter

_LAYER_COLORS = (
    "#4363d8", "#e6194b", "#3cb44b", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe",
)


def svg_die_plot(
    design: Design,
    router: GlobalRouter | None = None,
    nets: list[str] | None = None,
    width_px: int = 800,
) -> str:
    """Render the die, cells, blockages, and (optionally) net routes.

    Returns an SVG document string.  With a router, the GCell routes of
    ``nets`` (default: none) are drawn color-coded by layer.
    """
    die = design.die
    scale = width_px / max(1, die.width)
    height_px = max(1, int(die.height * scale))

    def sx(x: int) -> float:
        return (x - die.lx) * scale

    def sy(y: int) -> float:
        # SVG y grows downward; flip so north is up.
        return height_px - (y - die.ly) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" '
        'fill="#fafafa" stroke="#333"/>',
    ]
    for row in design.rows:
        parts.append(
            f'<rect x="{sx(row.origin_x):.1f}" y="{sy(row.origin_y + row.height):.1f}" '
            f'width="{row.end_x * scale - row.origin_x * scale:.1f}" '
            f'height="{row.height * scale:.1f}" fill="none" '
            'stroke="#e0e0e0" stroke-width="0.5"/>'
        )
    for cell in design.cells.values():
        box = cell.bbox()
        fill = "#607d8b" if cell.fixed else "#b0bec5"
        parts.append(
            f'<rect x="{sx(box.lx):.1f}" y="{sy(box.uy):.1f}" '
            f'width="{box.width * scale:.1f}" height="{box.height * scale:.1f}" '
            f'fill="{fill}" fill-opacity="0.6" stroke="#78909c" stroke-width="0.3"/>'
        )
    for blockage in design.placement_blockages():
        box = blockage.rect
        parts.append(
            f'<rect x="{sx(box.lx):.1f}" y="{sy(box.uy):.1f}" '
            f'width="{box.width * scale:.1f}" height="{box.height * scale:.1f}" '
            'fill="#ef5350" fill-opacity="0.4" stroke="#c62828"/>'
        )
    if router is not None and nets:
        for net_name in nets:
            route = router.routes.get(net_name)
            if route is None:
                continue
            for edge in router.graph.edge_order(route.edges):
                (l0, x0, y0), (_, x1, y1) = router.graph.endpoints(edge)
                a = router.grid.center_of(x0, y0)
                b = router.grid.center_of(x1, y1)
                color = _LAYER_COLORS[l0 % len(_LAYER_COLORS)]
                parts.append(
                    f'<line x1="{sx(a.x):.1f}" y1="{sy(a.y):.1f}" '
                    f'x2="{sx(b.x):.1f}" y2="{sy(b.y):.1f}" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts)
