"""Parity and invalidation tests for the dense cost-field kernel.

The contract under test: :class:`repro.grid.field.CostField` is a pure
speedup over the scalar :class:`repro.grid.cost.CostModel` oracle —
edge costs are *bit-identical*, prefix-sum run costs agree to 1e-9
(float association is the only permitted difference), and the field
stays coherent through every mutation path: ``apply_route`` in both
signs, rip-up/reroute, and guard-transaction rollback.  The scalar maze
and run pricing the router used to carry live in ``oracles.groute``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import (
    CostField,
    CostModel,
    CostParams,
    EdgeKind,
    GridEdge,
    RoutingGraph,
)
from repro.groute import GlobalRouter, maze_route
from repro.guard.deadline import (
    DeadlineExceeded,
    DeadlineTicker,
    deadline_scope,
)
from repro.guard.transaction import IterationTransaction

from helpers import fresh_small
from oracles.groute import maze_route_scalar, scalar_run_cost


def all_wire_edges(graph: RoutingGraph) -> list[GridEdge]:
    edges = []
    for layer in range(graph.min_wire_layer, graph.num_layers):
        ex, ey = graph.wire_edge_shape(layer)
        for gx in range(ex):
            for gy in range(ey):
                edges.append(GridEdge(layer, gx, gy, EdgeKind.WIRE))
    return edges


def randomize_usage(graph: RoutingGraph, seed: int) -> None:
    """Drive usage through the graph mutators so listeners fire."""
    rng = np.random.RandomState(seed)
    for edge in all_wire_edges(graph):
        if rng.rand() < 0.3:
            graph.add_wire(edge, float(rng.randint(1, 5)))
    for layer in range(graph.num_layers - 1):
        nx, ny = graph.via_usage[layer].shape
        for _ in range(nx * ny // 3):
            gx, gy = rng.randint(nx), rng.randint(ny)
            graph.add_via(GridEdge(layer, int(gx), int(gy), EdgeKind.VIA))


def assert_field_matches_oracle(
    graph: RoutingGraph, field: CostField, oracle: CostModel
) -> None:
    """Every edge cost bit-equal; no tolerance."""
    for edge in all_wire_edges(graph):
        assert field.edge_cost(edge) == oracle.edge_cost(edge), edge
    via = GridEdge(0, 0, 0, EdgeKind.VIA)
    assert field.edge_cost(via) == oracle.edge_cost(via)


@pytest.fixture()
def routed_graph(tech45):
    """A small routed design's graph + a (field, oracle) pair.

    The field is a second listener beside the router's own, so the tests
    below see it go stale and refresh independently of routing queries.
    """
    design = fresh_small(seed=7)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    field = CostField(router.graph, router.cost.params)
    return router, field, router.cost


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_parity_bit_exact(tech45, seed):
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    field = CostField(router.graph, router.cost.params)
    randomize_usage(router.graph, seed=100 + seed)
    assert_field_matches_oracle(router.graph, field, router.cost)


def test_parity_without_penalty(tech45):
    design = fresh_small(seed=5)
    router = GlobalRouter(design)
    params = CostParams(use_penalty=False)
    field = CostField(router.graph, params)
    oracle = CostModel(router.graph, params)
    randomize_usage(router.graph, seed=11)
    assert_field_matches_oracle(router.graph, field, oracle)


def test_parity_after_apply_route_both_signs(routed_graph):
    router, field, oracle = routed_graph
    graph = router.graph
    name = next(iter(router.routes))
    edges = list(router.routes[name].edges)
    graph.apply_route(edges, sign=-1)
    assert_field_matches_oracle(graph, field, oracle)
    graph.apply_route(edges, sign=1)
    assert_field_matches_oracle(graph, field, oracle)


def test_parity_after_ripup_reroute(routed_graph):
    router, field, oracle = routed_graph
    for name in list(router.routes)[:5]:
        router.rip_up(name)
        assert_field_matches_oracle(router.graph, field, oracle)
        router.route_net(name)
    assert_field_matches_oracle(router.graph, field, oracle)


def test_invalidation_is_incremental(routed_graph):
    """A single add_wire recomputes one line, not the whole layer."""
    router, field, _ = routed_graph
    field.ensure()  # start clean
    edge = all_wire_edges(router.graph)[0]
    before = field._lines_recomputed
    router.graph.add_wire(edge)
    field.ensure()
    assert field._lines_recomputed == before + 1
    # A clean field is a hit: no further recompute.
    flushes = field._flushes
    field.ensure()
    assert field._flushes == flushes


def test_via_change_dirties_adjacent_wire_layers(routed_graph):
    """delta_e couples a via at cut layer l to wire layers l and l+1."""
    router, field, oracle = routed_graph
    graph = router.graph
    field.ensure()
    cut = graph.min_wire_layer  # cut between wire layers cut and cut+1
    via = GridEdge(cut, 1, 1, EdgeKind.VIA)
    graph.add_via(via)
    assert field._dirty_lines[cut] or field._all_dirty[cut]
    assert field._dirty_lines[cut + 1] or field._all_dirty[cut + 1]
    assert_field_matches_oracle(graph, field, oracle)


def test_prefix_run_cost_matches_scalar(routed_graph):
    router, field, oracle = routed_graph
    graph = router.graph
    pattern3d = router.pattern3d
    pattern3d.field.ensure()
    rng = np.random.RandomState(3)
    for layer in range(graph.min_wire_layer, graph.num_layers):
        ex, ey = graph.wire_edge_shape(layer)
        if ex == 0 or ey == 0:
            continue
        horizontal = graph.tech.layers[layer].is_horizontal
        for _ in range(20):
            if horizontal:
                line = int(rng.randint(ey))
                a, b = sorted(rng.randint(0, ex + 1, size=2))
                run = ((int(a), line), (int(b), line))
            else:
                line = int(rng.randint(ex))
                a, b = sorted(rng.randint(0, ey + 1, size=2))
                run = ((line, int(a)), (line, int(b)))
            if a == b:
                continue
            scalar = scalar_run_cost(pattern3d, oracle, run, layer)
            dense = pattern3d._run_cost(run, layer)
            assert dense == pytest.approx(scalar, abs=1e-9)


def test_overflow_edges_matches_scalar_scan(routed_graph):
    router, field, _ = routed_graph
    graph = router.graph
    randomize_usage(graph, seed=23)
    expected = [
        e
        for e in all_wire_edges(graph)
        if graph.demand(e) > graph.capacity(e)
    ]
    assert field.overflow_edges() == expected
    assert expected  # the randomized usage must actually overflow


def test_parity_after_transaction_rollback(tech45):
    design = fresh_small(seed=9)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    oracle = router.cost
    field = router.field

    txn = IterationTransaction(design, router)
    names = list(router.routes)[:4]
    for name in names:
        txn.routes[name] = router.copy_route(name)
    before = {n: sorted(router.routes[n].edges) for n in names}
    for name in names:
        router.rip_up(name)
    txn.rollback()
    after = {n: sorted(router.routes[n].edges) for n in names}
    assert after == before
    assert_field_matches_oracle(router.graph, field, oracle)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("overflow_penalty", [0.0, 20.0])
def test_maze_matches_scalar_reference(tech45, seed, overflow_penalty):
    """The dense-map maze returns the scalar A*'s route, edge for edge.

    Random usage (so penalties and overflow differ per edge) and random
    multi-node source/target sets, with and without the RRR surcharge.
    """
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    graph = router.graph
    randomize_usage(graph, seed=200 + seed)
    rng = np.random.RandomState(300 + seed)

    def random_nodes(count: int) -> set[tuple[int, int, int]]:
        return {
            (
                int(rng.randint(graph.min_wire_layer, graph.num_layers)),
                int(rng.randint(graph.grid.nx)),
                int(rng.randint(graph.grid.ny)),
            )
            for _ in range(count)
        }

    found = 0
    for _ in range(12):
        sources = random_nodes(int(rng.randint(1, 4)))
        targets = random_nodes(int(rng.randint(1, 4)))
        margin = int(rng.randint(0, 5))
        dense = maze_route(
            graph, router.cost, router.field, set(sources), set(targets),
            margin=margin, overflow_penalty=overflow_penalty,
        )
        scalar = maze_route_scalar(
            graph, router.cost, set(sources), set(targets),
            margin=margin, overflow_penalty=overflow_penalty,
        )
        assert dense == scalar
        found += bool(dense)
    assert found  # the draws must produce real searches, not only overlaps


def test_edge_nets_prunes_empty_sets(tech45):
    design = fresh_small(seed=17)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    for name in list(router.routes):
        router.rip_up(name)
    assert router._edge_nets == {}


def test_deadline_ticker_first_tick_checks():
    """Stride batching must not delay the very first deadline check."""
    ticker = DeadlineTicker("test.site", stride=64)
    with deadline_scope(0.0, "zero"):
        with pytest.raises(DeadlineExceeded):
            ticker.tick()


def test_deadline_ticker_strides():
    ticker = DeadlineTicker("test.site", stride=8)
    with deadline_scope(1e9, "slack"):
        for _ in range(100):
            ticker.tick()
    # After the scope closes an expired check would raise; ticks between
    # checkpoint ticks must not consult the (now absent) deadline stack.
    ticker2 = DeadlineTicker("test.site", stride=4)
    ticker2.tick()  # checkpoint (no scope open: no-op)
    with deadline_scope(0.0, "zero"):
        ticker2.tick()  # 1 of 4: batched, must not raise
        ticker2.tick()  # 2 of 4
        ticker2.tick()  # 3 of 4
        with pytest.raises(DeadlineExceeded):
            ticker2.tick()  # 4 of 4: checkpoint fires
