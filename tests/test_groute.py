"""Unit tests for the global router: patterns, layer DP, maze, driver."""

import pytest

from repro.benchgen import make_design
from repro.droute import DetailedRouter
from repro.droute.router import GUIDE_MARGIN_TRACKS
from repro.droute.access import access_nodes
from repro.droute.indexed import DrouteIndex, guide_spans
from repro.grid import EdgeKind, GridEdge
from repro.groute import GlobalRouter, maze_route, pattern_paths_2d
from repro.groute.patterns import runs_of_path

from helpers import add_cell, add_two_pin_net, add_usage, build_tiny_design, fresh_small
from oracles.field import capacity
from oracles.groute import decoded, guides_reference, route_pattern


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
    result = route_pattern(router.pattern3d, [(0, 0), (3, 0)], 0, 0)
    assert result is not None
    edges = decoded(router.graph, result.edges)
    wires = [e for e in edges if e.kind is EdgeKind.WIRE]
    vias = [e for e in edges if e.kind is EdgeKind.VIA]
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
    result = route_pattern(router.pattern3d, [(2, 2)], 0, 3)
    assert result is not None
    assert all(e.kind is EdgeKind.VIA for e in decoded(router.graph, result.edges))
    assert len(result.edges) == 3


def test_pattern3d_free_end_layer(routed_tiny):
    router = GlobalRouter(routed_tiny)
    result = route_pattern(router.pattern3d, [(0, 0), (4, 0)], 0, None)
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
    clean = route_pattern(router.pattern3d, [(0, 0), (3, 0)], 0, 0)
    used_layer = next(
        e.layer for e in decoded(graph, clean.edges) if e.kind is EdgeKind.WIRE
    )
    for gx in range(3):
        edge = GridEdge(used_layer, gx, 0, EdgeKind.WIRE)
        add_usage(graph, edge, amount=capacity(graph, edge) + 5)
    rerouted = route_pattern(router.pattern3d, [(0, 0), (3, 0)], 0, 0)
    new_layer = next(
        e.layer for e in decoded(graph, rerouted.edges) if e.kind is EdgeKind.WIRE
    )
    assert new_layer != used_layer


# ------------------------------------------------------------------ maze


def test_maze_route_connects(routed_tiny):
    router = GlobalRouter(routed_tiny)
    path = maze_route(
        router.graph, router.field,
        sources={(1, 0, 0)}, targets={(1, 3, 3)},
    )
    assert path is not None
    # Path must be a connected edge walk from source to target.
    nodes = set()
    for edge in path:
        a, b = router.graph.endpoints(edge)
        nodes.add(a)
        nodes.add(b)
    assert (1, 0, 0) in nodes and (1, 3, 3) in nodes


def test_maze_route_trivial_overlap(routed_tiny):
    router = GlobalRouter(routed_tiny)
    assert maze_route(
        router.graph, router.field, {(1, 0, 0)}, {(1, 0, 0)}
    ) == []


def test_maze_route_empty_inputs(routed_tiny):
    router = GlobalRouter(routed_tiny)
    assert maze_route(
        router.graph, router.field, set(), {(1, 0, 0)}
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
        # BFS over edges from one terminal must reach all terminals.
        adjacency = {}
        for edge in route.edges:
            a, b = router.graph.endpoints(edge)
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
            for layer, gx, gy in router.graph.endpoints(edge):
                center = router.grid.center_of(gx, gy)
                assert any(
                    r.contains_point(center) for r in per_layer.get(layer, [])
                ), (name, edge)


def _covered_gcells(grid, rects) -> set[tuple[int, int, int]]:
    """(layer, gx, gy) of every GCell a guide's rects cover."""
    covered = set()
    for g in rects:
        r = g.rect
        for gx in range((r.lx - grid.origin_x) // grid.step_x,
                        (r.ux - grid.origin_x) // grid.step_x):
            for gy in range((r.ly - grid.origin_y) // grid.step_y,
                            (r.uy - grid.origin_y) // grid.step_y):
                covered.add((g.layer, gx, gy))
    return covered


def _stamped(index, stamp, bounds) -> int:
    """How many nodes inside ``bounds`` (every layer) carry ``stamp``."""
    ix0, iy0, ix1, iy1 = bounds
    ge, nx, ny = index.guide_epoch, index.nx, index.ny
    return sum(
        ge[(layer * ny + iy) * nx + ix0:(layer * ny + iy) * nx + ix1 + 1].count(stamp)
        for layer in range(index.num_layers)
        for iy in range(iy0, iy1 + 1)
    )


@pytest.mark.parametrize("name", ["ispd18_test1", "ispd18_test3", "ispd18_test5"])
def test_run_guides_mark_what_the_per_gcell_guides_marked(name):
    """One rect per GCell run covers what the per-GCell 3x3 rects, less
    the contained ones, covered: the same GCells per (net, layer), the
    same lattice nodes stamped for the detailed router and the same
    search bounds."""
    design = make_design(name)
    router = GlobalRouter(design)
    router.route_all()
    guides = router.guides()
    reference = guides_reference(router)
    assert guides.keys() == reference.keys() == router.routes.keys()
    dr = DetailedRouter(design)
    lattice = dr.lattice
    index = DrouteIndex(lattice, {}, guide_margin=GUIDE_MARGIN_TRACKS)
    fewer = 0
    for net in design.nets.values():
        rects, expected = guides[net.name], reference[net.name]
        assert _covered_gcells(router.grid, rects) == _covered_gcells(
            router.grid, expected
        ), net.name
        fewer += len(expected) - len(rects)
        access = [access_nodes(design, lattice, pin) for pin in net.pins]
        spans, bounds = guide_spans(lattice, GUIDE_MARGIN_TRACKS, rects, access)
        expected_spans, expected_bounds = guide_spans(
            lattice, GUIDE_MARGIN_TRACKS, expected, access
        )
        assert bounds == expected_bounds, net.name
        # Stamp the reference, count it, stamp over it: the sets are equal
        # when nothing of the first stamp shows and the counts agree.
        first = index.stamp_guides(expected_spans, access)
        marked = _stamped(index, first, bounds)
        second = index.stamp_guides(spans, access)
        assert _stamped(index, first, bounds) == 0, net.name
        assert _stamped(index, second, bounds) == marked, net.name
    assert fewer > 0


def test_usage_consistent_after_rrr():
    """Graph usage equals the sum of all committed routes."""
    design = fresh_small(seed=7)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    edges = [
        edge
        for route in router.routes.values()
        for edge in decoded(router.graph, route.edges)
    ]
    assert router.total_vias() == sum(e.kind is EdgeKind.VIA for e in edges)
    grid, layers = router.grid, router.graph.tech.layers
    expected_wl = sum(
        grid.step_x if layers[e.layer].is_horizontal else grid.step_y
        for e in edges
        if e.kind is EdgeKind.WIRE
    )
    assert router.total_wirelength_dbu() == expected_wl
