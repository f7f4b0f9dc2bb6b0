"""Parity and invalidation tests for the dense cost-field kernel.

The contract under test: :class:`repro.grid.field.CostField` is a pure
speedup over the scalar ``oracles.field.CostModel`` oracle —
edge costs are *bit-identical*, prefix-sum run costs agree to 1e-9
(float association is the only permitted difference), and the field
stays coherent through every mutation path: ``apply_route`` in both
signs, rip-up/reroute, and guard-transaction rollback.  The scalar maze
and run pricing the router used to carry live in ``oracles.groute``; the
scalar cost model and the per-line recompute the field used to run per
layer in ``oracles.field``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.crp as crp_module
from repro.core import CrpConfig, CrpFramework
from repro.db.design import GCellGridSpec
from repro.flow import pipeline, run_flow
from repro.grid import CostField, EdgeKind, GridEdge, RoutingGraph
from repro.groute import GlobalRouter, maze_route
from repro.guard.faults import FaultPlan, use_faults
from repro.guard.transaction import IterationTransaction
from repro.obs import observe

from helpers import add_usage, counted, fresh_small
from oracles.field import CostModel, capacity, demand, reference_maps
from oracles.groute import decoded, maze_route_scalar, scalar_run_cost


def all_wire_edges(graph: RoutingGraph) -> list[GridEdge]:
    edges = []
    for layer in range(graph.min_wire_layer, graph.num_layers):
        ex, ey = graph.wire_edge_shape(layer)
        for gx in range(ex):
            for gy in range(ey):
                edges.append(GridEdge(layer, gx, gy, EdgeKind.WIRE))
    return edges


def randomize_usage(graph: RoutingGraph, seed: int) -> None:
    """Drive usage through the graph mutator so listeners fire."""
    rng = np.random.RandomState(seed)
    for edge in all_wire_edges(graph):
        if rng.rand() < 0.3:
            add_usage(graph, edge, float(rng.randint(1, 5)))
    for layer in range(graph.num_layers - 1):
        nx, ny = graph.via_usage[layer].shape
        for _ in range(nx * ny // 3):
            gx, gy = rng.randint(nx), rng.randint(ny)
            add_usage(graph, GridEdge(layer, int(gx), int(gy), EdgeKind.VIA))


def assert_field_matches_oracle(
    graph: RoutingGraph, field: CostField, oracle: CostModel
) -> None:
    """Every edge cost bit-equal; no tolerance."""
    for edge in all_wire_edges(graph):
        assert field.edge_cost(graph.edge_id(edge)) == oracle.edge_cost(edge), edge
    via = GridEdge(0, 0, 0, EdgeKind.VIA)
    assert field.edge_cost(graph.edge_id(via)) == oracle.edge_cost(via)


@pytest.fixture()
def routed_graph(tech45):
    """A small routed design's graph + a (field, oracle) pair.

    The field is a second listener beside the router's own, so the tests
    below see it go stale and refresh independently of routing queries.
    """
    design = fresh_small(seed=7)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    field = CostField(router.graph)
    return router, field, CostModel(router.graph)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_parity_bit_exact(tech45, seed):
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    field = CostField(router.graph)
    randomize_usage(router.graph, seed=100 + seed)
    assert_field_matches_oracle(router.graph, field, CostModel(router.graph))


def test_parity_without_penalty(tech45):
    design = fresh_small(seed=5)
    router = GlobalRouter(design)
    field = CostField(router.graph, use_penalty=False)
    oracle = CostModel(router.graph, use_penalty=False)
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
    """One wire's usage change recomputes one line, not the whole layer."""
    router, field, _ = routed_graph
    field.ensure()  # start clean
    edge = all_wire_edges(router.graph)[0]
    add_usage(router.graph, edge)
    _, counter = counted(field.ensure)
    assert counter("cost_field.lines_recomputed") == 1
    # A clean field is a hit: no further recompute.
    _, counter = counted(field.ensure)
    assert counter("cost_field.queries") == 1
    assert counter("cost_field.recomputes") == 0


def test_via_change_dirties_adjacent_wire_layers(routed_graph):
    """delta_e couples a via at cut layer l to wire layers l and l+1 —
    and to nothing else: one flush rebuilds exactly those two lines."""
    router, field, oracle = routed_graph
    graph = router.graph
    field.ensure()
    cut = graph.min_wire_layer  # cut between wire layers cut and cut+1
    add_usage(graph, GridEdge(cut, 1, 1, EdgeKind.VIA))
    _, counter = counted(assert_field_matches_oracle, graph, field, oracle)
    assert counter("cost_field.lines_recomputed") == 2
    assert counter("cost_field.recomputes") == 1


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
            dense = pattern3d.field.run_cost_batch(
                [layer], np.array([a]), np.array([b]), np.array([line])
            ).item()
            assert dense == pytest.approx(scalar, abs=1e-9)


def test_overflow_edges_matches_scalar_scan(routed_graph):
    router, field, _ = routed_graph
    graph = router.graph
    randomize_usage(graph, seed=23)
    expected = [
        graph.edge_id(e)
        for e in all_wire_edges(graph)
        if demand(graph, e) > capacity(graph, e)
    ]
    assert field.overflow_edges() == expected
    assert expected  # the randomized usage must actually overflow


def test_parity_after_transaction_rollback(tech45):
    design = fresh_small(seed=9)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    oracle = CostModel(router.graph)
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


# ------------------------------------------------ batched flush vs per line


def assert_maps_match_reference(graph: RoutingGraph, field: CostField) -> None:
    """All three maps bit-equal to the from-scratch per-line reference,
    with the shapes and dtype consumers index them by."""
    field.ensure()
    assert not field._dirty  # layer 0 included
    for got, want in zip(
        (field._wire_cost, field._demand, field._prefix),
        reference_maps(graph, field.use_penalty),
    ):
        for layer, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape and a.dtype == b.dtype, layer
            assert np.array_equal(a, b), layer


@pytest.mark.parametrize("nx,ny", [(21, 20), (1, 20), (21, 1), (1, 1)])
def test_batched_flush_matches_per_line_reference(nx, ny):
    """Random commit / rip / ``note_all`` / rollback sequences, penalty
    on and off, on test5's grid shape and on grids where whole layers
    have no edge (``nx == 1``: every horizontal layer; ``(1, 1)``: all of
    them, the row tables are zero wide)."""
    design = fresh_small(seed=13)
    die = design.die
    design.gcell_grid = GCellGridSpec(
        die.lx, die.ly, -(-die.width // nx), -(-die.height // ny), nx, ny
    )
    router = GlobalRouter(design)
    graph = router.graph
    assert (graph.grid.nx, graph.grid.ny) == (nx, ny)
    flat_field = CostField(graph, use_penalty=False)
    fields = (router.field, flat_field)
    randomize_usage(graph, seed=31)  # uneven demand: both clamps, overflow
    router.route_all(rrr_passes=1)
    for field in fields:
        assert_maps_match_reference(graph, field)

    rng = np.random.RandomState(nx * 100 + ny)
    names = sorted(design.nets)
    for _ in range(40):
        op = rng.randint(4)
        picked = [names[i] for i in rng.choice(len(names), size=3, replace=False)]
        if op == 0:
            for name in picked:
                router.route_net(name)
        elif op == 1:
            for name in picked:
                router.rip_up(name)
        elif op == 2:
            fields[rng.randint(2)].note_all()
        else:
            txn = IterationTransaction(design, router)
            for name in picked:
                txn.routes[name] = router.copy_route(name)
            router.reroute_nets(picked)
            router.rip_up(picked[0])
            txn.rollback()
        # Not every step refreshes both fields, so dirt accumulates
        # across steps in one of them.
        for field in fields[: 1 + rng.randint(2)]:
            assert_maps_match_reference(graph, field)
    for field in fields:
        assert_maps_match_reference(graph, field)


def quantities(graph: RoutingGraph):
    return (
        (graph.wire_usage, graph.wire_usage_flat),
        (graph.fixed_usage, graph.fixed_usage_flat),
        (graph.wire_capacity, graph.wire_capacity_flat),
        (graph.via_usage, graph.via_usage_flat),
    )


def assert_layers_alias_flat(graph: RoutingGraph) -> None:
    for views, flat in quantities(graph):
        assert sum(view.size for view in views) == flat.size - 1
        for view in views:
            assert view.ndim == 2 and np.shares_memory(view, flat)


def test_layer_arrays_alias_flat_buffers_through_rollback(monkeypatch):
    """``graph.wire_usage[l]`` etc. are views of the flat buffers the
    field gathers from, and a rolled-back CR&P iteration writes through
    them."""
    design = fresh_small(seed=11)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    graph = router.graph
    assert_layers_alias_flat(graph)
    assert graph.total_vias() > 0
    # The reference reads the per-layer arrays, the field the flat ones.
    assert_maps_match_reference(graph, router.field)
    before = [arr.copy() for arr in graph.wire_usage + graph.via_usage]

    apply_moves = crp_module.apply_moves
    updates = []

    def recording_apply_moves(*args):
        updates.append(apply_moves(*args))
        return updates[-1]

    monkeypatch.setattr(crp_module, "apply_moves", recording_apply_moves)
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    plan = FaultPlan().force("crp.invariants", "forced-violation")
    with use_faults(plan):
        stats = framework.run_iteration(0)
    assert stats.rolled_back and stats.rollback_reasons == ["forced-violation"]
    assert updates and updates[0].rerouted_nets  # the rollback had work to undo
    assert_layers_alias_flat(graph)
    after = graph.wire_usage + graph.via_usage
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert_maps_match_reference(graph, router.field)


def test_spare_slots_stay_zero_through_a_flow(monkeypatch):
    """Padded gathers read the spare slots as "no usage, no via"."""
    routers = []

    class Recording(GlobalRouter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            routers.append(self)

    monkeypatch.setattr(pipeline, "GlobalRouter", Recording)
    result = run_flow(fresh_small(), mode="crp", crp_iterations=2)
    assert not result.failed and len(routers) == 1
    graph = routers[0].graph
    assert graph.wire_usage_flat[-1] == 0.0
    assert graph.fixed_usage_flat[-1] == 0.0
    assert graph.via_usage_flat[-1] == 0
    assert routers[0].accounting_errors() == []


# ------------------------------------------------------------------ metrics


def test_recomputes_count_dirty_ensures(routed_graph):
    """One ``_recompute`` — one ``cost_field.recomputes`` — per dirty
    ``ensure()``, however many layers the dirt spans."""
    router, field, _ = routed_graph
    field.ensure()
    calls = []
    recompute = field._recompute
    field._recompute = lambda rows: (calls.append(len(rows)), recompute(rows))

    def ensure_twice():
        field.ensure()
        field.ensure()  # clean: a hit, not a recompute

    # Only the ensures are observed: the router's own field counts too.
    dirty_ensures = recomputes = lines = 0
    for name in list(router.routes)[:6]:
        for change in (router.rip_up, router.route_net):
            change(name)
            dirty_ensures += bool(field._dirty)
            _, counter = counted(ensure_twice)
            recomputes += counter("cost_field.recomputes")
            lines += counter("cost_field.lines_recomputed")
    assert len(calls) == dirty_ensures == recomputes >= 6
    assert lines == sum(calls)
    assert max(calls) > 1  # a route spans layers: rows batched in one call


def test_reroute_nets_counts_its_field_traffic(tech45):
    """Update-Database's field traffic is counted, and one recompute
    rebuilds a small share of the rows (DESIGN.md's ``dirty_ratio``,
    lines over recomputes times rows, read off the counters)."""
    design = fresh_small(seed=7)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    with observe() as obs:
        for _ in range(3):
            router.reroute_nets(list(router.routes)[:8])
    counter = obs.metrics.counter
    for name in ("queries", "recomputes", "lines_recomputed"):
        assert counter(f"cost_field.{name}") > 0, name
    dirty_ratio = counter("cost_field.lines_recomputed") / (
        router.field._num_rows * counter("cost_field.recomputes")
    )
    assert 0.0 < dirty_ratio < 0.5


@pytest.mark.parametrize("mode", ["crp", "fontana"])
def test_every_field_event_is_counted(monkeypatch, mode):
    """Every ``ensure`` and ``_recompute`` of every field a flow builds --
    the router's, and [18]'s penalty-free pricer -- is in ``cost_field.*``
    when the flow ends, the last ones included."""
    from repro.benchgen import make_design

    spied = dict.fromkeys(("queries", "recomputes", "lines_recomputed"), 0)
    ensure, recompute = CostField.ensure, CostField._recompute

    def spy_ensure(self):
        spied["queries"] += 1
        ensure(self)

    def spy_recompute(self, rows):
        spied["recomputes"] += 1
        spied["lines_recomputed"] += len(rows)
        recompute(self, rows)

    monkeypatch.setattr(CostField, "ensure", spy_ensure)
    monkeypatch.setattr(CostField, "_recompute", spy_recompute)
    result = run_flow(
        make_design("ispd18_test1"), mode=mode, crp_iterations=1,
        skip_detailed=True,
    )
    assert not result.failed and spied["recomputes"] > 0
    counters = result.metrics["counters"]
    assert {
        name: counters.get(f"cost_field.{name}", 0) for name in spied
    } == spied


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
            graph, router.field, set(sources), set(targets),
            margin=margin, overflow_penalty=overflow_penalty,
        )
        scalar = maze_route_scalar(
            graph, CostModel(graph), set(sources), set(targets),
            margin=margin, overflow_penalty=overflow_penalty,
        )
        assert (dense if dense is None else decoded(graph, dense)) == scalar
        found += bool(dense)
    assert found  # the draws must produce real searches, not only overlaps


def test_edge_nets_prunes_empty_sets(tech45):
    design = fresh_small(seed=17)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    for name in list(router.routes):
        router.rip_up(name)
    assert router._edge_nets == {}

