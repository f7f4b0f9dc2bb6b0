"""Unit tests for the GCell grid, routing graph, and cost field."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.geom import Point, Rect
from repro.db import Blockage
from repro.db.design import GCellGridSpec
import repro.groute.maze as maze_module
from repro.benchgen import SUITE, make_design
from repro.grid import CostField, EdgeKind, GCellGrid, GridEdge, RoutingGraph
from repro.groute import maze_route

from helpers import add_usage, build_tiny_design
from oracles.field import capacity, demand, endpoints
from oracles.groute import neighbors


@pytest.fixture()
def grid():
    return GCellGrid(GCellGridSpec(0, 0, 1000, 1000, 10, 8))


def test_gcell_of_clamps(grid):
    assert grid.gcell_of(Point(-50, -50)) == (0, 0)
    assert grid.gcell_of(Point(10**9, 10**9)) == (9, 7)
    assert grid.gcell_of(Point(1500, 2500)) == (1, 2)


def test_center_and_rect(grid):
    assert grid.center_of(0, 0) == Point(500, 500)
    assert grid.rect_of(2, 3) == Rect(2000, 3000, 3000, 4000)


def test_gcells_overlapping(grid):
    cells = grid.gcells_overlapping(Rect(500, 500, 2500, 1500))
    assert (0, 0) in cells and (2, 1) in cells
    assert len(cells) == 6


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError):
        GCellGrid(GCellGridSpec(0, 0, 0, 100, 5, 5))


def test_for_design_derives_grid(tech45):
    design = build_tiny_design(tech45)
    design.gcell_grid = None
    grid = GCellGrid.for_design(design, target_gcells=6)
    assert grid.nx >= 6
    assert design.gcell_grid is not None


# ------------------------------------------------------------------ graph


@pytest.fixture()
def graph(tech45):
    design = build_tiny_design(tech45, num_rows=8, sites_per_row=50)
    design.gcell_grid = GCellGridSpec(0, 0, 2000, 2000, 5, 5)
    g = RoutingGraph(GCellGrid(design.gcell_grid), tech45)
    g.init_fixed_usage(design)
    return g


def test_wire_edge_shapes(graph):
    # Horizontal layer 0: (nx-1, ny); vertical layer 1: (nx, ny-1)
    assert graph.wire_edge_shape(0) == (4, 5)
    assert graph.wire_edge_shape(1) == (5, 4)


def test_capacity_is_tracks_per_gcell(graph, tech45):
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    assert capacity(graph, edge) == 2000 // tech45.layers[2].pitch


def test_wire_usage_roundtrip(graph):
    edge = GridEdge(2, 1, 1, EdgeKind.WIRE)
    before = demand(graph, edge)
    add_usage(graph, edge)
    assert demand(graph, edge) == before + 1
    add_usage(graph, edge, -1)
    assert demand(graph, edge) == before


def test_invalid_edges_rejected(graph):
    with pytest.raises(ValueError):
        graph.edge_id(GridEdge(0, 99, 0, EdgeKind.WIRE))
    with pytest.raises(ValueError):
        graph.edge_id(GridEdge(8, 0, 0, EdgeKind.VIA))  # top layer has no up-via
    with pytest.raises(ValueError):
        demand(graph, GridEdge(0, 0, 0, EdgeKind.VIA))


def test_via_demand_term(graph):
    """Eq. 9: vias at edge endpoints add beta * sqrt((Vsrc+Vdst)/2)."""
    edge = GridEdge(2, 1, 1, EdgeKind.WIRE)
    base = demand(graph, edge)
    add_usage(graph, GridEdge(2, 1, 1, EdgeKind.VIA))  # via touching src gcell
    after = demand(graph, edge)
    assert after == pytest.approx(base + 1.5 * math.sqrt(0.5))
    add_usage(graph, GridEdge(1, 2, 1, EdgeKind.VIA))  # via touching dst gcell
    assert demand(graph, edge) == pytest.approx(base + 1.5 * math.sqrt(1.0))


def test_apply_route_sign(graph):
    edges = {
        graph.edge_id(GridEdge(2, 0, 0, EdgeKind.WIRE)),
        graph.edge_id(GridEdge(2, 0, 0, EdgeKind.VIA)),
    }
    graph.apply_route(edges, sign=1)
    assert graph.wire_usage[2][0, 0] == 1
    assert graph.via_usage[2][0, 0] == 1
    graph.apply_route(edges, sign=-1)
    assert graph.total_vias() == 0
    assert graph.overflow() == 0.0


def test_neighbors_respect_layer_direction(graph):
    """The scalar maze's neighbour generator (the reference the inline
    one in ``maze_route`` is pinned to)."""
    # Layer 2 horizontal: wire moves change gx only.
    wire_moves = [
        n for n, e in neighbors(graph, (2, 2, 2)) if e.kind is EdgeKind.WIRE
    ]
    assert all(n[0] == 2 and n[2] == 2 for n in wire_moves)
    # Layer 1 vertical: wire moves change gy only.
    wire_moves = [
        n for n, e in neighbors(graph, (1, 2, 2)) if e.kind is EdgeKind.WIRE
    ]
    assert all(n[0] == 1 and n[1] == 2 for n in wire_moves)


def test_neighbors_min_wire_layer(graph):
    moves = neighbors(graph, (0, 2, 2))
    assert all(e.kind is EdgeKind.VIA for _, e in moves)


def test_fixed_usage_from_blockage(tech45):
    design = build_tiny_design(tech45, num_rows=8, sites_per_row=50)
    design.gcell_grid = GCellGridSpec(0, 0, 2000, 2000, 5, 5)
    design.add_blockage(Blockage(2, Rect(0, 0, 4000, 4000)))
    graph = RoutingGraph(GCellGrid(design.gcell_grid), tech45)
    graph.init_fixed_usage(design)
    # Fully covered gcells lose whole capacity but never exceed it.
    assert graph.fixed_usage[2][0, 0] > 0
    assert (graph.fixed_usage[2] <= graph.wire_capacity[2] + 1e-9).all()
    # Other layers untouched.
    assert graph.fixed_usage[3].sum() == 0


def test_congestion_map_shape_and_range(graph):
    add_usage(graph, GridEdge(2, 0, 0, EdgeKind.WIRE), amount=5)
    cmap = graph.congestion_map()
    assert cmap.shape == (5, 5)
    assert cmap.max() > 0


# ------------------------------------------------------------------- cost


def test_penalty_increases_with_demand(graph):
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    edge_id = graph.edge_id(edge)
    field = CostField(graph)
    unit = CostField(graph, use_penalty=False).edge_cost(edge_id)

    def penalty() -> float:
        return field.edge_cost(edge_id) / unit - 1.0

    empty = penalty()
    add_usage(graph, edge, amount=capacity(graph, edge))
    assert penalty() > empty
    assert penalty() == pytest.approx(0.5, abs=0.01)
    add_usage(graph, edge, amount=100)
    assert penalty() > 0.99


def test_penalty_disabled(graph):
    field = CostField(graph, use_penalty=False)
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    add_usage(graph, edge, amount=1000)
    assert field.edge_cost(graph.edge_id(edge)) == 0.5 * 10


def test_via_edge_cost_is_weight(graph):
    field = CostField(graph)
    assert field.via_cost == 2.0
    assert field.edge_cost(graph.edge_id(GridEdge(0, 0, 0, EdgeKind.VIA))) == 2.0


def test_wire_cost_scales_with_distance(graph):
    field = CostField(graph, use_penalty=False)
    # one gcell step = 2000 DBU = 10 M2 pitches, weight 0.5
    wire = graph.edge_id(GridEdge(2, 0, 0, EdgeKind.WIRE))
    assert field.edge_cost(wire) == pytest.approx(0.5 * 10)
    for layer_cost in field.wire_cost_maps():
        assert (layer_cost == 0.5 * 10).all()


def test_lower_bound_is_admissible(graph, monkeypatch):
    """The maze A*'s heuristic — its first push is the source's
    ``f = h`` — is the congestion-free direct cost to the nearest
    target: no route costs less, and an empty graph's route costs
    exactly that."""
    pushed = []
    heapq = maze_module.heapq

    def heappush(heap, entry):
        pushed.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(
        maze_module, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    )
    a, b = (0, 0, 0), (3, 4, 2)
    # wire + via stack
    direct = 0.5 * (4 * 2000 + 2 * 2000) / 200 + 2.0 * 3
    for targets in ({b}, {b, (7, 4, 4)}):  # one target, or the nearest of two
        for use_penalty in (False, True):
            pushed.clear()
            field = CostField(graph, use_penalty=use_penalty)
            path = maze_route(graph, field, {a}, targets)
            assert pushed[0][0] == pytest.approx(direct)
            if use_penalty:
                assert field.path_cost(path) >= direct
            else:
                assert field.path_cost(path) == pytest.approx(direct)


def test_path_cost_sums(graph):
    field = CostField(graph)
    edges = [
        graph.edge_id(GridEdge(2, 0, 0, EdgeKind.WIRE)),
        graph.edge_id(GridEdge(2, 0, 0, EdgeKind.VIA)),
    ]
    assert field.path_cost(edges) == pytest.approx(
        field.edge_cost(edges[0]) + field.edge_cost(edges[1])
    )


# --------------------------------------------------------------- edge ids


@pytest.mark.parametrize("name", sorted(SUITE))
def test_edge_id_tables_on_suite_grids(name):
    """On every suite design's GCell grid: decode and encode invert each
    other, the order key sorts like ``GridEdge`` does (a via before a
    wire at the same GCell), endpoints come lower node first as
    ``GridEdge.endpoints`` gave them (one id at a time and all at once),
    and each id dirties the field rows ``_row_base[layer] + line`` of the
    layers its usage feeds."""
    design = make_design(name)
    graph = RoutingGraph(GCellGrid.for_design(design), design.tech)
    field = CostField(graph)
    ids = range(graph.num_edges)
    decoded = [graph.edge(i) for i in ids]
    assert [graph.edge_id(edge) for edge in decoded] == list(ids)
    assert [graph.edge(i) for i in graph.edge_order(ids)] == sorted(decoded)
    assert sum(edge.kind is EdgeKind.WIRE for edge in decoded) == graph.n_wire

    def row(layer: int, gx: int, gy: int) -> int:
        horizontal = graph.tech.layers[layer].is_horizontal
        return field._row_base[layer] + (gy if horizontal else gx)

    layer, gx, gy = graph.endpoint_arrays(np.arange(graph.num_edges))
    ends = list(zip(layer.tolist(), gx.tolist(), gy.tolist()))
    assert list(zip(ends[:graph.num_edges], ends[graph.num_edges:])) == [
        graph.endpoints(i) for i in ids
    ]
    for i, edge in zip(ids, decoded):
        assert graph.endpoints(i) == endpoints(graph, edge)
        layers = [edge.layer] if edge.kind is EdgeKind.WIRE else [edge.layer, edge.layer + 1]
        assert graph.edge_rows[i] == tuple(row(l, edge.gx, edge.gy) for l in layers)


def test_runs_and_via_stacks_are_id_ranges(graph):
    """``wire_run`` / ``via_stack`` list the same edges, in the same
    order, as spelling each ``GridEdge`` out."""
    for layer in range(graph.num_layers):
        ex, ey = graph.wire_edge_shape(layer)
        if graph.tech.layers[layer].is_horizontal:
            for gy in range(ey):
                expected = [GridEdge(layer, gx, gy, EdgeKind.WIRE) for gx in range(1, ex)]
                got = [graph.edge(i) for i in graph.wire_run(layer, 1, ex, gy)]
                assert got == expected
        else:
            for gx in range(ex):
                expected = [GridEdge(layer, gx, gy, EdgeKind.WIRE) for gy in range(1, ey)]
                got = [graph.edge(i) for i in graph.wire_run(layer, 1, ey, gx)]
                assert got == expected
    stack = [GridEdge(layer, 3, 2, EdgeKind.VIA) for layer in range(1, 6)]
    assert [graph.edge(i) for i in graph.via_stack(3, 2, 6, 1)] == stack
    assert list(graph.via_stack(3, 2, 4, 4)) == []
