"""Unit tests for the global router: patterns, layer DP, maze, driver."""

import pytest

from repro.grid import CostModel, CostParams, EdgeKind, GridEdge
from repro.groute import GlobalRouter, maze_route, pattern_paths_2d
from repro.groute.patterns import runs_of_path

from helpers import add_cell, add_two_pin_net, build_tiny_design, fresh_small


# --------------------------------------------------------------- patterns


def test_same_point():
    assert pattern_paths_2d((3, 3), (3, 3)) == [[(3, 3)]]


def test_straight_line_single_path():
    assert pattern_paths_2d((0, 2), (5, 2)) == [[(0, 2), (5, 2)]]


def test_l_and_z_shapes():
    paths = pattern_paths_2d((0, 0), (6, 4), num_z_samples=2)
    assert [(0, 0), (6, 0), (6, 4)] in paths
    assert [(0, 0), (0, 4), (6, 4)] in paths
    z_paths = [p for p in paths if len(p) == 4]
    assert z_paths
    for path in paths:
        assert path[0] == (0, 0) and path[-1] == (6, 4)
        for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
            assert x0 == x1 or y0 == y1  # axis-aligned runs only


def test_adjacent_cells_no_z():
    paths = pattern_paths_2d((0, 0), (1, 1))
    # no interior samples exist; only the two L shapes
    assert len(paths) == 2


def test_runs_of_path_drops_degenerate():
    runs = runs_of_path([(0, 0), (0, 0), (3, 0), (3, 2)])
    assert runs == [((0, 0), (3, 0)), ((3, 0), (3, 2))]


# ------------------------------------------------------------- pattern 3D


@pytest.fixture()
def routed_tiny(tech45):
    from repro.db.design import GCellGridSpec

    design = build_tiny_design(tech45, num_rows=8, sites_per_row=60)
    design.gcell_grid = GCellGridSpec(
        origin_x=0,
        origin_y=0,
        step_x=design.die.width // 8,
        step_y=design.die.height // 8,
        nx=8,
        ny=8,
    )
    add_cell(design, "a", "INV_X1", 2, 0)
    add_cell(design, "b", "INV_X1", 50, 6)
    add_two_pin_net(design, "n", "a", "b")
    return design


def test_pattern3d_straight(routed_tiny):
    router = GlobalRouter(routed_tiny)
    result = router.pattern3d.route([(0, 0), (3, 0)], 0, 0)
    assert result is not None
    wires = [e for e in result.edges if e.kind is EdgeKind.WIRE]
    vias = [e for e in result.edges if e.kind is EdgeKind.VIA]
    assert len(wires) == 3
    # Run must sit on a horizontal layer >= min_wire_layer; vias connect
    # pin layer 0 up and back down.
    layers = {e.layer for e in wires}
    assert len(layers) == 1
    layer = layers.pop()
    assert router.graph.tech.layers[layer].is_horizontal
    assert layer >= router.graph.min_wire_layer
    assert vias


def test_pattern3d_same_gcell_via_stack(routed_tiny):
    router = GlobalRouter(routed_tiny)
    result = router.pattern3d.route([(2, 2)], 0, 3)
    assert result is not None
    assert all(e.kind is EdgeKind.VIA for e in result.edges)
    assert len(result.edges) == 3


def test_pattern3d_free_end_layer(routed_tiny):
    router = GlobalRouter(routed_tiny)
    result = router.pattern3d.route([(0, 0), (4, 0)], 0, None)
    assert result is not None
    assert result.end_layer >= 1


def test_pattern3d_avoids_congested_layer(routed_tiny):
    router = GlobalRouter(routed_tiny)
    graph = router.graph
    # Saturate the cheapest horizontal layer along the path.
    h_layers = [
        l.index
        for l in graph.tech.layers
        if l.is_horizontal and l.index >= graph.min_wire_layer
    ]
    clean = router.pattern3d.route([(0, 0), (3, 0)], 0, 0)
    used_layer = next(e.layer for e in clean.edges if e.kind is EdgeKind.WIRE)
    for gx in range(3):
        graph.add_wire(
            GridEdge(used_layer, gx, 0, EdgeKind.WIRE),
            amount=graph.capacity(GridEdge(used_layer, gx, 0, EdgeKind.WIRE)) + 5,
        )
    rerouted = router.pattern3d.route([(0, 0), (3, 0)], 0, 0)
    new_layer = next(e.layer for e in rerouted.edges if e.kind is EdgeKind.WIRE)
    assert new_layer != used_layer


# ------------------------------------------------------------------ maze


def test_maze_route_connects(routed_tiny):
    router = GlobalRouter(routed_tiny)
    path = maze_route(
        router.graph, router.cost, router.field,
        sources={(1, 0, 0)}, targets={(1, 3, 3)},
    )
    assert path is not None
    # Path must be a connected edge walk from source to target.
    nodes = set()
    for edge in path:
        a, b = edge.endpoints(router.graph)
        nodes.add(a)
        nodes.add(b)
    assert (1, 0, 0) in nodes and (1, 3, 3) in nodes


def test_maze_route_trivial_overlap(routed_tiny):
    router = GlobalRouter(routed_tiny)
    assert maze_route(
        router.graph, router.cost, router.field, {(1, 0, 0)}, {(1, 0, 0)}
    ) == []


def test_maze_route_empty_inputs(routed_tiny):
    router = GlobalRouter(routed_tiny)
    assert maze_route(
        router.graph, router.cost, router.field, set(), {(1, 0, 0)}
    ) is None


# ----------------------------------------------------------------- driver


def test_route_net_commits_usage(routed_tiny):
    router = GlobalRouter(routed_tiny)
    route = router.route_net("n")
    assert route.edges
    assert router.total_wirelength_dbu() > 0
    assert router.net_cost("n") > 0
    router.rip_up("n")
    assert router.total_wirelength_dbu() == 0
    assert router.total_vias() == 0
    assert router.net_cost("n") == 0.0


def test_route_all_covers_every_net():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    assert set(router.routes) == set(design.nets)
    for net in design.nets.values():
        if len(router.terminals_of(net)) > 1:
            assert router.routes[net.name].edges, net.name


def test_routes_are_connected_trees():
    """Every route's edges form a connected subgraph spanning terminals."""
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    for name, route in router.routes.items():
        if not route.edges:
            continue
        nodes = route.nodes(router.graph)
        # BFS over edges from one terminal must reach all terminals.
        adjacency = {}
        for edge in route.edges:
            a, b = edge.endpoints(router.graph)
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        start = route.terminals[0]
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adjacency.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for terminal in route.terminals:
            assert terminal in seen, (name, terminal)


def test_reroute_after_cell_move(routed_tiny):
    router = GlobalRouter(routed_tiny)
    router.route_all()
    before = router.net_cost("n")
    design = routed_tiny
    # Move cell b right next to a: the net should become much cheaper.
    row = design.rows[0]
    design.move_cell("b", row.site_x(5), row.origin_y, row.orient)
    dirty = router.dirty_nets_for_cells(["b"])
    assert dirty == ["n"]
    router.reroute_nets(dirty)
    after = router.net_cost("n")
    assert after < before


def test_cell_cost_sums_nets(routed_tiny):
    router = GlobalRouter(routed_tiny)
    router.route_all()
    assert router.cell_cost("a") == pytest.approx(router.net_cost("n"))


def test_guides_cover_route():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    guides = router.guides()
    assert set(guides) == set(router.routes)
    for name, route in router.routes.items():
        rects = guides[name]
        assert rects
        per_layer = {}
        for g in rects:
            per_layer.setdefault(g.layer, []).append(g.rect)
        for edge in route.edges:
            for layer, gx, gy in edge.endpoints(router.graph):
                center = router.grid.center_of(gx, gy)
                assert any(
                    r.contains_point(center) for r in per_layer.get(layer, [])
                ), (name, edge)


def test_usage_consistent_after_rrr():
    """Graph usage equals the sum of all committed routes."""
    design = fresh_small(seed=7)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    expected_vias = sum(r.via_count() for r in router.routes.values())
    assert router.total_vias() == expected_vias
    expected_wl = sum(
        r.wirelength_dbu(router.grid, router.graph) for r in router.routes.values()
    )
    assert router.total_wirelength_dbu() == expected_wl
