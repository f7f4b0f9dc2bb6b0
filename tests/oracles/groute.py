"""Scalar references for the global router's cost-field paths.

What ``GlobalRouter`` ran before every route was priced through a
:class:`repro.grid.field.CostField`: each step or run costed one
``GridEdge`` at a time through the scalar ``oracles.field.CostModel``.
``_maze_route_scalar`` and ``_reconstruct`` are the functions that used
to live in ``src/repro/groute/maze.py`` and ``scalar_run_cost`` the
fallback branch of ``PatternRouter3D._run_cost``, moved here unchanged;
the production maze must expand the same nodes and return the same
route, and prefix-sum run costs must agree to float association.
``route_segment_all_built`` is ``GlobalRouter._route_segment`` as it ran
before it ranked plans first: every pattern path materialized and priced
edge by edge; production must return the same route, edge for edge.
``route_pattern`` is the removed ``PatternRouter3D.route``: refresh the
field, plan, build.

Routes became sets of int edge ids; what the router did with
``GridEdge`` sets before lives here as the references the id paths are
pinned to: ``neighbors`` (``RoutingGraph.neighbors``), ``route_nodes``
(``NetRoute.nodes``), ``net_cost_reference`` (a net's cost as
``GlobalRouter.net_costs`` gives it, sorting ``GridEdge`` objects) and
``routes_digest_reference`` (``routes_digest`` pickling ``sorted``
``GridEdge`` tuples).
"""

from __future__ import annotations

import hashlib
import heapq
import pickle
from itertools import count

from repro.ckpt.digest import DIGEST_PROTOCOL
from repro.grid import EdgeKind, GridEdge, RoutingGraph
from repro.groute.maze import MAZE_MARGIN, Node, _window
from repro.groute.patterns import pattern_paths_2d
from repro.obs import get_metrics

from oracles.field import CostModel, capacity, demand, endpoints


def neighbors(
    graph: RoutingGraph, node: Node
) -> list[tuple[Node, GridEdge]]:
    """Adjacent nodes with the edge that reaches them (for maze search)."""
    layer, gx, gy = node
    result: list[tuple[Node, GridEdge]] = []
    tech_layer = graph.tech.layers[layer]
    if layer < graph.min_wire_layer:
        pass  # no wire moves below the first routing layer
    elif tech_layer.is_horizontal:
        if gx + 1 < graph.grid.nx:
            result.append(((layer, gx + 1, gy), GridEdge(layer, gx, gy, EdgeKind.WIRE)))
        if gx - 1 >= 0:
            result.append(((layer, gx - 1, gy), GridEdge(layer, gx - 1, gy, EdgeKind.WIRE)))
    else:
        if gy + 1 < graph.grid.ny:
            result.append(((layer, gx, gy + 1), GridEdge(layer, gx, gy, EdgeKind.WIRE)))
        if gy - 1 >= 0:
            result.append(((layer, gx, gy - 1), GridEdge(layer, gx, gy - 1, EdgeKind.WIRE)))
    if layer + 1 < graph.num_layers:
        result.append(((layer + 1, gx, gy), GridEdge(layer, gx, gy, EdgeKind.VIA)))
    if layer - 1 >= 0:
        result.append(((layer - 1, gx, gy), GridEdge(layer - 1, gx, gy, EdgeKind.VIA)))
    return result


def decoded(graph: RoutingGraph, edges) -> list[GridEdge]:
    """Edge ids as readable ``GridEdge`` values, in the given order."""
    return [graph.edge(edge) for edge in edges]


def route_nodes(graph: RoutingGraph, route) -> set[Node]:
    """Every graph node a committed route touches, terminals included."""
    result: set[Node] = set(route.terminals)
    for edge in decoded(graph, route.edges):
        result.update(endpoints(graph, edge))
    return result


def net_cost_reference(router, net_name: str) -> float:
    """A net's Eq. 10 cost summed left to right over its decoded edges in
    ``sorted(GridEdge)`` order, each read from the field's per-layer map."""
    route = router.routes.get(net_name)
    if route is None:
        return 0.0
    field = router.field
    field.ensure()
    total = 0.0
    for edge in sorted(decoded(router.graph, route.edges)):
        if edge.kind is EdgeKind.VIA:
            total += field.via_cost
        else:
            total += float(field._wire_cost[edge.layer][edge.gx, edge.gy])
    return total


def routes_digest_reference(router) -> str:
    """``routes_digest`` over ``GridEdge`` sets: sorted dataclass tuples."""
    canon = tuple(
        (name, tuple(sorted(decoded(router.graph, router.routes[name].edges))))
        for name in sorted(router.routes)
    )
    return hashlib.sha256(pickle.dumps(canon, protocol=DIGEST_PROTOCOL)).hexdigest()


def scalar_run_cost(pattern3d, cost_model: CostModel, run, layer: int) -> float:
    """Left-to-right ``edge_cost`` sum over one straight run."""
    return cost_model.path_cost(decoded(pattern3d.graph, pattern3d._run_edges(run, layer)))


def route_pattern(pattern3d, path, src_layer: int, dst_layer):
    """One pattern path routed and built: refresh the field, plan, build
    (``None`` when the path has no plan)."""
    pattern3d.field.ensure()
    plan = pattern3d.plan(path, src_layer, dst_layer)
    return None if plan is None else pattern3d.build(plan)


def route_segment_all_built(router, src: Node, dst_xy, dst_layer):
    """Best pattern route of one segment: build every path, keep the
    first cheapest by ``path_cost``."""
    best = None
    for path in pattern_paths_2d((src[1], src[2]), dst_xy):
        result = route_pattern(router.pattern3d, path, src[0], dst_layer)
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
    try:
        while open_heap:
            f, _, node = heapq.heappop(open_heap)
            g = g_score[node]
            if f > g + heuristic(node) + 1e-9:
                continue  # stale entry
            expansions += 1
            if node in targets:
                return _reconstruct(node, came_from)
            for neighbour, edge in neighbors(graph, node):
                if not in_window(neighbour):
                    continue
                step = cost_model.edge_cost(edge)
                if overflow_penalty > 0.0 and edge.kind.value == "wire":
                    if demand(graph, edge) >= capacity(graph, edge):
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



def guides_reference(router, expand: int = 1) -> dict:
    """``GlobalRouter.guides`` as it ran before it emitted GCell runs:
    one 3x3 (for ``expand=1``) rect per GCell built from per-edge
    ``endpoints`` tuples, then rects contained in another on the same
    layer dropped by an O(n^2) scan (``_merge_guides``)."""
    from collections import defaultdict

    from repro.groute import GuideRect

    graph = router.graph
    grid = router.grid
    result = {}
    for net_name, route in router.routes.items():
        per_layer = defaultdict(set)
        for edge in route.edges:
            a, b = graph.endpoints(edge)
            per_layer[a[0]].add((a[1], a[2]))
            per_layer[b[0]].add((b[1], b[2]))
        for layer, gx, gy in route.terminals:
            per_layer[layer].add((gx, gy))
            per_layer[min(layer + 1, graph.num_layers - 1)].add((gx, gy))
        rects = []
        for layer, gcells in sorted(per_layer.items()):
            for gx, gy in sorted(gcells):
                lo = grid.rect_of(max(0, gx - expand), max(0, gy - expand))
                hi = grid.rect_of(
                    min(grid.nx - 1, gx + expand), min(grid.ny - 1, gy + expand)
                )
                rects.append(GuideRect(layer, lo.union(hi)))
        result[net_name] = _merge_guides(rects)
    return result


def _merge_guides(rects: list) -> list:
    """Drop guide rects fully contained in another on the same layer."""
    kept = []
    for g in sorted(rects, key=lambda g: (g.layer, -g.rect.area)):
        if any(
            k.layer == g.layer and k.rect.contains_rect(g.rect) for k in kept
        ):
            continue
        kept.append(g)
    return kept
