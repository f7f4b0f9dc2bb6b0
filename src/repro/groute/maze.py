"""A* maze routing over the 3D GCell graph.

The fallback when pattern routing cannot find an overflow-free path —
used by the rip-up-and-reroute passes.  The search is bounded to the
bounding box of the terminals plus a margin, which keeps RRR tractable
on large grids.

The inner loop reads step costs straight out of the dense per-layer maps
of a :class:`repro.grid.field.CostField` and generates neighbors inline —
no per-edge object, no per-edge demand recomputation; the found path
is returned as graph edge ids.
The scalar reference this search is pinned to (same expansions, same
route) lives in ``tests/oracles/groute.py``.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.grid import CostField, RoutingGraph
from repro.grid.field import WIRE_WEIGHT
from repro.obs import get_metrics

Node = tuple[int, int, int]  # (layer, gx, gy)

#: default search-window margin (gcells beyond the terminal bbox)
MAZE_MARGIN = 4


def _window(
    graph: RoutingGraph, sources: set[Node], targets: set[Node], margin: int
) -> tuple[int, int, int, int]:
    xs = [n[1] for n in sources | targets]
    ys = [n[2] for n in sources | targets]
    lo_x = max(0, min(xs) - margin)
    hi_x = min(graph.grid.nx - 1, max(xs) + margin)
    lo_y = max(0, min(ys) - margin)
    hi_y = min(graph.grid.ny - 1, max(ys) + margin)
    return lo_x, hi_x, lo_y, hi_y


def maze_route(
    graph: RoutingGraph,
    field: CostField,
    sources: set[Node],
    targets: set[Node],
    margin: int = MAZE_MARGIN,
    overflow_penalty: float = 0.0,
) -> list[int] | None:
    """Cheapest path from any source to any target.

    ``overflow_penalty`` adds a hard surcharge to edges whose demand
    already meets capacity, steering RRR away from full edges entirely.
    Returns the path's edge ids, source first, or ``None`` when
    disconnected inside the search window.

    Neighbor order matches the scalar reference's (wire forward, wire
    backward, via up, via down) so the heap tie counter — and hence the
    returned path — is identical to it.
    """
    if not sources or not targets:
        return None
    if sources & targets:
        return []
    lo_x, hi_x, lo_y, hi_y = _window(graph, sources, targets, margin)
    wire_cost = field.wire_cost_maps()  # refreshes the field once
    via_cost = field.via_cost
    overflow = None
    if overflow_penalty > 0.0:
        demand = field.demand_maps()
        overflow = [
            demand[layer] >= graph.wire_capacity[layer]
            for layer in range(graph.num_layers)
        ]
    horizontal = tuple(layer.is_horizontal for layer in graph.tech.layers)
    num_layers = graph.num_layers
    min_wire_layer = graph.min_wire_layer

    # Admissible heuristic: the congestion-free cost to the nearest
    # target.  Its arithmetic is the scalar reference's lower bound
    # operation for operation, so f-values (and hence pop order) match
    # it; the single-target case just skips the min().
    wire_w = WIRE_WEIGHT
    pitch = field.pitch
    step_x, step_y = graph.grid.step_x, graph.grid.step_y
    if len(targets) == 1:
        t_layer, t_gx, t_gy = next(iter(targets))

        def heuristic(node: Node) -> float:
            dist = (
                abs(node[1] - t_gx) * step_x + abs(node[2] - t_gy) * step_y
            ) / pitch
            return wire_w * dist + via_cost * abs(node[0] - t_layer)

    else:

        def heuristic(node: Node) -> float:
            layer, gx, gy = node
            return min(
                wire_w * ((abs(gx - tx) * step_x + abs(gy - ty) * step_y) / pitch)
                + via_cost * abs(layer - t_layer)
                for t_layer, tx, ty in targets
            )

    tie = count()
    open_heap: list[tuple[float, int, Node]] = []
    g_score: dict[Node, float] = {}
    came_from: dict[Node, Node] = {}
    for s in sources:
        g_score[s] = 0.0
        heapq.heappush(open_heap, (heuristic(s), next(tie), s))

    heappush = heapq.heappush
    heappop = heapq.heappop
    g_score_get = g_score.get
    next_tie = tie.__next__
    inf = float("inf")
    expansions = 0
    try:
        while open_heap:
            f, _, node = heappop(open_heap)
            g = g_score[node]
            if f > g + heuristic(node) + 1e-9:
                continue  # stale entry
            expansions += 1
            if node in targets:
                return _reconstruct_nodes(graph, node, came_from)
            layer, gx, gy = node

            def consider(neighbour: Node, step: float) -> None:
                tentative = g + step
                if tentative < g_score_get(neighbour, inf) - 1e-12:
                    g_score[neighbour] = tentative
                    came_from[neighbour] = node
                    heappush(
                        open_heap,
                        (tentative + heuristic(neighbour), next_tie(), neighbour),
                    )

            # Neighbor order matches the scalar reference: wire forward,
            # wire backward, via up, via down.
            if layer >= min_wire_layer:
                cost_row = wire_cost[layer]
                over_row = overflow[layer] if overflow is not None else None
                if horizontal[layer]:
                    if gx + 1 <= hi_x:
                        step = cost_row[gx, gy]
                        if over_row is not None and over_row[gx, gy]:
                            step += overflow_penalty
                        consider((layer, gx + 1, gy), step)
                    if gx - 1 >= lo_x:
                        step = cost_row[gx - 1, gy]
                        if over_row is not None and over_row[gx - 1, gy]:
                            step += overflow_penalty
                        consider((layer, gx - 1, gy), step)
                else:
                    if gy + 1 <= hi_y:
                        step = cost_row[gx, gy]
                        if over_row is not None and over_row[gx, gy]:
                            step += overflow_penalty
                        consider((layer, gx, gy + 1), step)
                    if gy - 1 >= lo_y:
                        step = cost_row[gx, gy - 1]
                        if over_row is not None and over_row[gx, gy - 1]:
                            step += overflow_penalty
                        consider((layer, gx, gy - 1), step)
            if layer + 1 < num_layers:
                consider((layer + 1, gx, gy), via_cost)
            if layer - 1 >= 0:
                consider((layer - 1, gx, gy), via_cost)
        return None
    finally:
        metrics = get_metrics()
        metrics.count("groute.maze_calls")
        metrics.observe("groute.maze_expansions", expansions)


def _edge_between(graph: RoutingGraph, a: Node, b: Node) -> int:
    """The id of the graph edge joining two adjacent nodes of a maze path."""
    if a[0] != b[0]:
        return graph.via_id(min(a[0], b[0]), a[1], a[2])
    if a[2] == b[2]:
        return graph.wire_id(a[0], min(a[1], b[1]), a[2])
    return graph.wire_id(a[0], a[1], min(a[2], b[2]))


def _reconstruct_nodes(
    graph: RoutingGraph, node: Node, came_from: dict[Node, Node]
) -> list[int]:
    """Rebuild the edge ids of a found path from its node chain."""
    edges: list[int] = []
    while node in came_from:
        parent = came_from[node]
        edges.append(_edge_between(graph, parent, node))
        node = parent
    edges.reverse()
    return edges
