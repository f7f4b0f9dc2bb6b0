"""Scalar references for the global router's cost-field paths.

What ``GlobalRouter`` ran before every route was priced through a
:class:`repro.grid.field.CostField`: each step or run costed one
``GridEdge`` at a time through :meth:`CostModel.edge_cost`.
``_maze_route_scalar`` and ``_reconstruct`` are the functions that used
to live in ``src/repro/groute/maze.py`` and ``scalar_run_cost`` the
fallback branch of ``PatternRouter3D._run_cost``, moved here unchanged;
the production maze must expand the same nodes and return the same
route, and prefix-sum run costs must agree to float association.
``route_segment_all_built`` is ``GlobalRouter._route_segment`` as it ran
before it ranked plans first: every pattern path materialized and priced
edge by edge; production must return the same route, edge for edge.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.grid import CostModel, GridEdge, RoutingGraph
from repro.groute.maze import MAZE_MARGIN, Node, _window
from repro.groute.patterns import pattern_paths_2d
from repro.guard.deadline import DeadlineTicker
from repro.obs import get_metrics


def scalar_run_cost(pattern3d, cost_model: CostModel, run, layer: int) -> float:
    """Left-to-right ``edge_cost`` sum over one straight run."""
    return sum(cost_model.edge_cost(e) for e in pattern3d._run_edges(run, layer))


def route_segment_all_built(router, src: Node, dst_xy, dst_layer):
    """Best pattern route of one segment: build every path, keep the
    first cheapest by ``path_cost``."""
    best = None
    for path in pattern_paths_2d((src[1], src[2]), dst_xy):
        result = router.pattern3d.route(path, src[0], dst_layer)
        if result is None:
            continue
        if best is None or result.cost < best.cost:
            best = result
    if best is None:
        return None
    return best.edges, best.end_layer


def maze_route_scalar(
    graph: RoutingGraph,
    cost_model: CostModel,
    sources: set[Node],
    targets: set[Node],
    margin: int = MAZE_MARGIN,
    overflow_penalty: float = 0.0,
) -> list[GridEdge] | None:
    """``maze_route`` as it ran without a cost field."""
    if not sources or not targets:
        return None
    if sources & targets:
        return []
    return _maze_route_scalar(
        graph, cost_model, sources, targets, margin, overflow_penalty
    )


def _maze_route_scalar(
    graph: RoutingGraph,
    cost_model: CostModel,
    sources: set[Node],
    targets: set[Node],
    margin: int,
    overflow_penalty: float,
) -> list[GridEdge] | None:
    """Reference A* pricing every step through the scalar oracle."""
    lo_x, hi_x, lo_y, hi_y = _window(graph, sources, targets, margin)

    def in_window(node: Node) -> bool:
        return lo_x <= node[1] <= hi_x and lo_y <= node[2] <= hi_y

    def heuristic(node: Node) -> float:
        return min(cost_model.lower_bound(node, t) for t in targets)

    tie = count()
    open_heap: list[tuple[float, int, Node]] = []
    g_score: dict[Node, float] = {}
    came_from: dict[Node, tuple[Node, GridEdge]] = {}
    for s in sources:
        g_score[s] = 0.0
        heapq.heappush(open_heap, (heuristic(s), next(tie), s))

    # Expansions are tallied locally and recorded once on exit so the
    # inner loop stays metric-free.
    expansions = 0
    ticker = DeadlineTicker("groute.maze", stride=64)
    try:
        while open_heap:
            ticker.tick()
            f, _, node = heapq.heappop(open_heap)
            g = g_score[node]
            if f > g + heuristic(node) + 1e-9:
                continue  # stale entry
            expansions += 1
            if node in targets:
                return _reconstruct(node, came_from)
            for neighbour, edge in graph.neighbors(node):
                if not in_window(neighbour):
                    continue
                step = cost_model.edge_cost(edge)
                if overflow_penalty > 0.0 and edge.kind.value == "wire":
                    if graph.demand(edge) >= graph.capacity(edge):
                        step += overflow_penalty
                tentative = g + step
                if tentative < g_score.get(neighbour, float("inf")) - 1e-12:
                    g_score[neighbour] = tentative
                    came_from[neighbour] = (node, edge)
                    heapq.heappush(
                        open_heap,
                        (tentative + heuristic(neighbour), next(tie), neighbour),
                    )
        return None
    finally:
        metrics = get_metrics()
        metrics.count("groute.maze_calls")
        metrics.observe("groute.maze_expansions", expansions)



def _reconstruct(
    node: Node, came_from: dict[Node, tuple[Node, GridEdge]]
) -> list[GridEdge]:
    edges: list[GridEdge] = []
    while node in came_from:
        node, edge = came_from[node]
        edges.append(edge)
    edges.reverse()
    return edges

