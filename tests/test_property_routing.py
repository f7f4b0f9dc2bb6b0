"""Property-based tests for the routing engines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Point
from repro.ckpt import routes_digest
from repro.db.design import GCellGridSpec
from repro.grid import CostField, EdgeKind, GCellGrid, RoutingGraph
from repro.groute import GlobalRouter, PatternRouter3D, maze_route, pattern_paths_2d
from repro.benchgen import build_tech

from helpers import fresh_small
from oracles.field import CostModel
from oracles.groute import (
    decoded,
    net_cost_reference,
    route_pattern,
    routes_digest_reference,
)

_TECH = build_tech("45nm")
_GRID = GCellGrid(GCellGridSpec(0, 0, 2000, 2000, 12, 12))


def _fresh_graph() -> RoutingGraph:
    return RoutingGraph(_GRID, _TECH)


gpoints = st.tuples(st.integers(0, 11), st.integers(0, 11))


@settings(max_examples=50, deadline=None)
@given(gpoints, gpoints)
def test_patterns_are_monotone_and_terminal_correct(a, b):
    for path in pattern_paths_2d(a, b):
        assert path[0] == a and path[-1] == b
        # Each run is axis aligned and total length equals manhattan.
        length = 0
        for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
            assert x0 == x1 or y0 == y1
            length += abs(x1 - x0) + abs(y1 - y0)
        assert length == abs(a[0] - b[0]) + abs(a[1] - b[1])


def _edges_connect(graph, edges, src, dst):
    if src == dst and not edges:
        return True
    adjacency = {}
    for edge in edges:
        p, q = graph.endpoints(edge)
        adjacency.setdefault(p, set()).add(q)
        adjacency.setdefault(q, set()).add(p)
    if src not in adjacency:
        return False
    seen = {src}
    stack = [src]
    while stack:
        cur = stack.pop()
        for nxt in adjacency.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return dst in seen


@settings(max_examples=40, deadline=None)
@given(gpoints, gpoints, st.integers(0, 8), st.integers(0, 8))
def test_pattern3d_routes_connect_endpoints(a, b, src_layer, dst_layer):
    graph = _fresh_graph()
    router = PatternRouter3D(graph, CostField(graph), min_layer=1)
    paths = pattern_paths_2d(a, b)
    result = route_pattern(router, paths[0], src_layer, dst_layer)
    assert result is not None
    src = (src_layer, a[0], a[1])
    dst = (dst_layer, b[0], b[1])
    assert _edges_connect(graph, result.edges, src, dst)
    # Cost is the sum of edge costs under the scalar Eq. 10 definition.
    model = CostModel(graph)
    assert result.cost == model.path_cost(decoded(graph, result.edges))


@settings(max_examples=25, deadline=None)
@given(gpoints, gpoints, st.integers(1, 8), st.integers(1, 8))
def test_maze_matches_pattern_quality_or_better(a, b, src_layer, dst_layer):
    """On an empty graph, maze routing never loses to pattern routing."""
    graph = _fresh_graph()
    field = CostField(graph)
    pattern = PatternRouter3D(graph, field, min_layer=1)
    best_pattern = None
    for path in pattern_paths_2d(a, b):
        result = route_pattern(pattern, path, src_layer, dst_layer)
        if result and (best_pattern is None or result.cost < best_pattern):
            best_pattern = result.cost
    maze = maze_route(
        graph, field, {(src_layer, a[0], a[1])}, {(dst_layer, b[0], b[1])},
        margin=12,
    )
    assert maze is not None
    maze_cost = field.path_cost(maze)
    assert best_pattern is not None
    assert maze_cost <= best_pattern + 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 11), st.integers(0, 11)),
                min_size=2, max_size=6, unique=True))
def test_maze_multi_source_reaches_some_target(nodes):
    graph = _fresh_graph()
    sources = {nodes[0]}
    targets = set(nodes[1:])
    path = maze_route(graph, CostField(graph), sources, targets, margin=12)
    assert path is not None
    if not path:
        assert sources & targets
        return
    endpoints = set()
    for edge in path:
        p, q = graph.endpoints(edge)
        endpoints.add(p)
        endpoints.add(q)
    assert endpoints & sources
    assert endpoints & targets


#: one step of a route edit sequence: (operation, net index, net index)
route_steps = st.lists(
    st.tuples(
        st.sampled_from(["commit", "rip", "reroute", "maze"]),
        st.integers(0, 49),
        st.integers(0, 49),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 3), route_steps)
def test_id_routes_match_grid_edge_references(seed, steps):
    """Random commit / rip / reroute / maze-reroute sequences on edge-id
    routes: after every step each net's fresh cost has the bits of a
    ``sorted(GridEdge)`` left-to-right sum, the cost cache serves fresh
    values, the usage arrays match the routes, and the digest is the
    one ``GridEdge`` sets give."""
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    router.total_route_cost()  # the first query builds the cost cache
    names = sorted(design.nets)
    for op, i, j in steps:
        a, b = names[i % len(names)], names[j % len(names)]
        if op == "commit":
            router.route_net(a)
        elif op == "rip":
            router.rip_up(a)
        elif op == "reroute":
            router.reroute_nets(sorted({a, b}))
        else:
            router._maze_reroute(a)
        fresh = {name: router._net_cost_fresh(name) for name in names}
        for name in names:
            assert fresh[name] == net_cost_reference(router, name), name
            assert router.net_cost(name) == fresh[name], name
        assert router.total_route_cost() == sum(fresh[n] for n in design.nets)
        assert router.accounting_errors() == []
        assert routes_digest(router) == routes_digest_reference(router)
