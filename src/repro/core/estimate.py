"""Step 3: Candidate Position Cost Estimation (Algorithm 3).

For every candidate position of a critical cell, the cell's nets are
re-planned *virtually*: terminal positions are recomputed with the cell
(and its conflict cells) at the candidate location, decomposed by FLUTE,
and priced by the 3D pattern router under the current demand state —
without committing anything to the routing graph.  Per the paper, only
one cell per net moves in an iteration, so the other terminals stay
where the committed routes put them.
"""

from __future__ import annotations

from repro.geom import Orientation, Point
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.groute import GlobalRouter
from repro.groute.patterns import pattern_paths_2d
from repro.core.candidates import MoveCandidate

Node = tuple[int, int, int]


def estimate_candidate_cost(
    design: Design,
    router: GlobalRouter,
    candidate: MoveCandidate,
    include_conflicts: bool = False,
    cache: "object | None" = None,
) -> float:
    """Eq. 10 route cost of the candidate's cell nets (Algorithm 3).

    ``include_conflicts`` extends the estimate to the conflict cells'
    nets as well; the paper's Algorithm 3 prices only the critical
    cell's own nets (the legalizer already minimized the conflict
    displacement), so the default stays faithful.

    ``cache`` is an optional :class:`repro.core.fastecc.EccCache`;
    pricing through it is bit-identical to the uncached path (same
    terminal walk, same RSMT, same DP float operations in the same
    order) but amortizes terminal derivation, tree topology, and
    pattern pricing across the candidates of one iteration.
    """
    overrides, nets = candidate_scope(design, candidate, include_conflicts)
    total = 0.0
    for net in nets:
        total += estimate_net_cost(design, router, net, overrides, cache)
    return total


def candidate_scope(
    design: Design, candidate: MoveCandidate, include_conflicts: bool = False
) -> tuple[dict[str, tuple[int, int, Orientation]], list[Net]]:
    """The virtual moves of ``candidate`` and the nets they are priced on."""
    overrides: dict[str, tuple[int, int, Orientation]] = {
        candidate.cell: candidate.position
    }
    if candidate.conflict_moves:
        overrides.update(candidate.conflict_moves)

    nets = list(design.nets_of_cell(candidate.cell))
    if include_conflicts:
        seen = {net.name for net in nets}
        for conflict_cell in candidate.conflict_moves:
            for net in design.nets_of_cell(conflict_cell):
                if net.name not in seen:
                    seen.add(net.name)
                    nets.append(net)
    return overrides, nets


def estimate_net_cost(
    design: Design,
    router: GlobalRouter,
    net: Net,
    overrides: dict[str, tuple[int, int, Orientation]],
    cache: "object | None" = None,
) -> float:
    """Virtual FLUTE + 3D-pattern-route cost of one net (uncommitted)."""
    if cache is not None:
        return cache.net_cost(design, router, net, overrides)
    terminals = _terminals_with_overrides(design, router, net, overrides)
    if len(terminals) < 2:
        return 0.0
    points = [Point(t[1], t[2]) for t in terminals]
    tree = build_rsmt(points)
    layer_at: dict[tuple[int, int], int] = {}
    for layer, gx, gy in terminals:
        layer_at.setdefault((gx, gy), layer)

    total = 0.0
    for a, b in tree.edges:
        pa, pb = tree.points[a], tree.points[b]
        src_layer = layer_at.get((pa.x, pa.y))
        dst_layer = layer_at.get((pb.x, pb.y))
        best = None
        for path in pattern_paths_2d((pa.x, pa.y), (pb.x, pb.y)):
            # DP cost only — candidate pricing never needs the edge
            # lists, and each run is two prefix lookups, making this
            # the cheapest query in the loop.
            cost = router.pattern3d.route_cost(
                path,
                src_layer if src_layer is not None else router.graph.min_wire_layer,
                dst_layer,
            )
            if cost is None:
                continue
            if best is None or cost < best:
                best = cost
        if best is not None:
            total += best
    return total


def _terminals_with_overrides(
    design: Design,
    router: GlobalRouter,
    net: Net,
    overrides: dict[str, tuple[int, int, Orientation]],
) -> list[Node]:
    """Distinct terminal nodes with some cells virtually relocated."""
    nodes: list[Node] = []
    seen: set[Node] = set()
    for pin in net.pins:
        if pin.cell is not None and pin.cell in overrides:
            node = overridden_node(design, router, pin, overrides[pin.cell])
        else:
            point = design.pin_point(pin)
            layer = design.pin_layer(pin)
            gx, gy = router.grid.gcell_of(point)
            node = (layer, gx, gy)
        if node not in seen:
            seen.add(node)
            nodes.append(node)
    return nodes


def overridden_node(
    design: Design,
    router: GlobalRouter,
    pin,
    position: tuple[int, int, Orientation],
) -> Node:
    """Terminal node of one pin with its cell virtually at ``position``."""
    cell = design.cells[pin.cell]
    x, y, orient = position
    macro = cell.macro
    macro_pin = macro.pin(pin.pin)
    cx, cy = macro_pin.center_offset(orient, macro.width, macro.height)
    gx, gy = router.grid.gcell_of(Point(x + cx, y + cy))
    return (macro_pin.min_layer, gx, gy)
