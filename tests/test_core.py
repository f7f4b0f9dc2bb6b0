"""Unit tests for the CR&P core: labeling, candidates, estimation,
selection, update, and the iteration driver."""

import random

import pytest

from repro.db import check_legality
from repro.groute import GlobalRouter
from repro.core import labeling
from repro.core import (
    CrpConfig,
    CrpFramework,
    MoveCandidate,
    apply_moves,
    estimate_candidate_cost,
    generate_candidates,
    label_critical_cells,
    select_moves,
)
from repro.core.fastecc import EccCache
from repro.obs import observe

from helpers import fresh_small


@pytest.fixture()
def routed():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    return design, router


def cell_cost(design, net_costs, name):
    """Algorithm 1's cost of a cell: the summed costs of its nets."""
    return sum(net_costs[net.name] for net in design.nets_of_cell(name))


# ---------------------------------------------------------------- config


def test_config_validation():
    CrpConfig().validate()
    with pytest.raises(ValueError):
        CrpConfig(n_rows=0).validate()


# -------------------------------------------------------------- labeling


def test_labeling_respects_gamma(routed, monkeypatch):
    design, router = routed
    monkeypatch.setattr(labeling, "GAMMA", 0.1)
    config = CrpConfig(seed=1)
    critical = label_critical_cells(
        design, router.net_costs(), config, random.Random(1)
    )
    movable = [c for c in design.cells.values() if not c.fixed]
    assert len(critical) <= max(1, int(0.1 * len(movable)))


def test_labeling_no_connected_pairs(routed):
    design, router = routed
    config = CrpConfig(seed=1)
    critical = set(
        label_critical_cells(design, router.net_costs(), config, random.Random(1))
    )
    for name in critical:
        assert not (design.connected_cells(name) & (critical - {name}))


def test_labeling_prioritizes_expensive_cells(routed, monkeypatch):
    design, router = routed
    monkeypatch.setattr(labeling, "GAMMA", 0.2)
    config = CrpConfig(seed=3)
    net_costs = router.net_costs()
    critical = label_critical_cells(design, net_costs, config, random.Random(3))
    costs = [cell_cost(design, net_costs, name) for name in critical]
    movable = [c.name for c in design.cells.values() if not c.fixed]
    median_cost = sorted(cell_cost(design, net_costs, n) for n in movable)[
        len(movable) // 2
    ]
    # Selected cells skew expensive (independence constraint allows
    # exceptions, but the average must clear the median).
    assert sum(costs) / len(costs) >= median_cost


def test_labeling_orders_cells_by_summed_net_costs(routed):
    """With no history every cell passes the annealing test, so the first
    critical cell is the movable cell whose nets' costs sum highest."""
    design, router = routed
    rng = random.Random(7)
    net_costs = {name: rng.random() for name in design.nets}
    movable = [c.name for c in design.cells.values() if not c.fixed]

    def first(cost):
        return min(movable, key=lambda name: (-cost(name), name))

    by_sum = first(lambda name: cell_cost(design, net_costs, name))
    by_max = first(
        lambda name: max(
            (net_costs[net.name] for net in design.nets_of_cell(name)),
            default=0.0,
        )
    )
    assert by_sum != by_max  # the sum, not the dearest net, must decide
    critical = label_critical_cells(
        design, net_costs, CrpConfig(seed=1), random.Random(1)
    )
    assert critical[0] == by_sum


def test_labeling_history_damps_reselection(routed):
    design, router = routed
    config = CrpConfig(seed=5)
    first = set(
        label_critical_cells(design, router.net_costs(), config, random.Random(5))
    )
    assert design.critical_history >= first
    # Mark everything moved too: acceptance drops to exp(-2) ~ 13.5%.
    design.moved_history.update(first)
    repeats = []
    for trial in range(20):
        again = label_critical_cells(
            design, router.net_costs(), config, random.Random(100 + trial)
        )
        repeats.append(len(first & set(again)) / max(1, len(again)))
    assert sum(repeats) / len(repeats) < 0.6


def test_labeling_skips_fixed(routed):
    design, router = routed
    some = next(iter(design.cells.values()))
    some.fixed = True
    config = CrpConfig(seed=2)
    critical = label_critical_cells(
        design, router.net_costs(), config, random.Random(2)
    )
    assert some.name not in critical


# ------------------------------------------------------------ candidates


def test_generate_candidates_includes_current(routed):
    design, router = routed
    config = CrpConfig(seed=1)
    critical = label_critical_cells(
        design, router.net_costs(), config, random.Random(1)
    )[:5]
    candidates = generate_candidates(design, critical, config)
    for name in critical:
        assert candidates[name], name
        first = candidates[name][0]
        cell = design.cells[name]
        assert first.position == (cell.x, cell.y, cell.orient)
        assert first.is_current


def test_candidates_are_legal_positions(routed):
    design, router = routed
    config = CrpConfig(seed=1)
    critical = label_critical_cells(
        design, router.net_costs(), config, random.Random(1)
    )[:4]
    candidates = generate_candidates(design, critical, config)
    for name, options in candidates.items():
        for cand in options:
            x, y, orient = cand.position
            row = design.row_at_y(y)
            assert row is not None
            assert (x - row.origin_x) % row.site.width == 0
            assert orient == row.orient


# -------------------------------------------------------------- estimate


def test_estimate_current_position_close_to_routed_cost(routed):
    design, router = routed
    net_costs = router.net_costs()
    name = max(design.cells, key=lambda n: cell_cost(design, net_costs, n))
    cell = design.cells[name]
    cand = MoveCandidate(cell=name, position=(cell.x, cell.y, cell.orient))
    estimated = estimate_candidate_cost(
        design, router, cand, EccCache(router, router.field)
    )
    assert estimated > 0


def test_estimate_penalizes_distant_position(tech45):
    """Moving a cell away from its only neighbour must cost more."""
    from helpers import add_cell, add_two_pin_net, build_tiny_design
    from repro.db.design import GCellGridSpec

    design = build_tiny_design(tech45, num_rows=8, sites_per_row=60)
    design.gcell_grid = GCellGridSpec(
        0, 0, design.die.width // 8, design.die.height // 8, 8, 8
    )
    add_cell(design, "a", "INV_X1", 2, 0)
    add_cell(design, "b", "INV_X1", 4, 0)
    add_two_pin_net(design, "n", "a", "b")
    router = GlobalRouter(design)
    router.route_all()
    cell = design.cells["a"]
    cache = EccCache(router, router.field)
    here = estimate_candidate_cost(
        design, router, MoveCandidate("a", (cell.x, cell.y, cell.orient)), cache
    )
    far_row = design.rows[-1]
    far = estimate_candidate_cost(
        design,
        router,
        MoveCandidate(
            "a",
            (far_row.site_x(far_row.num_sites - 5), far_row.origin_y, far_row.orient),
        ),
        cache,
    )
    assert far > here


# ---------------------------------------------------------------- select


def test_select_picks_cheapest_per_cell(routed):
    design, _ = routed
    names = list(design.cells)[:2]
    candidates = {}
    for name in names:
        cell = design.cells[name]
        keep = MoveCandidate(name, (cell.x, cell.y, cell.orient))
        keep.route_cost = 10.0
        move = MoveCandidate(
            name, (cell.x, cell.y, cell.orient), displacement=1.0
        )
        move.route_cost = 2.0
        candidates[name] = [keep, move]
    chosen = select_moves(design, candidates)
    for name in names:
        assert chosen[name].route_cost == 2.0


def test_select_mutual_exclusion(routed):
    """Two cells targeting the same slot cannot both win."""
    design, _ = routed
    names = [n for n in design.cells if not design.cells[n].fixed][:2]
    a, b = names
    row = design.rows[0]
    target = (row.site_x(0), row.origin_y, row.orient)
    candidates = {}
    for name in (a, b):
        cell = design.cells[name]
        keep = MoveCandidate(name, (cell.x, cell.y, cell.orient))
        keep.route_cost = 10.0
        move = MoveCandidate(name, target, displacement=1.0)
        move.route_cost = 0.0
        candidates[name] = [keep, move]
    chosen = select_moves(design, candidates)
    winners = [n for n in (a, b) if chosen[n].position == target]
    assert len(winners) == 1


def test_select_handles_infinite_cost(routed):
    design, _ = routed
    name = next(iter(design.cells))
    cell = design.cells[name]
    keep = MoveCandidate(name, (cell.x, cell.y, cell.orient))
    keep.route_cost = 5.0
    bad = MoveCandidate(name, (cell.x, cell.y, cell.orient), displacement=2.0)
    bad.route_cost = float("inf")
    chosen = select_moves(design, {name: [keep, bad]})
    assert chosen[name] is keep


# ---------------------------------------------------------------- update


def test_apply_moves_reroutes_and_tracks_history(routed):
    design, router = routed
    name = next(
        n for n in design.cells
        if not design.cells[n].fixed and design.cells[n].nets
    )
    cell = design.cells[name]
    row = design.row_at_y(cell.y)
    # Shift one site right if free, else left.
    new_x = cell.x + row.site.width
    cand = MoveCandidate(name, (new_x, cell.y, cell.orient), displacement=1.0)
    stats = apply_moves(design, router, {name: cand})
    assert name in stats.moved_cells
    assert name in design.moved_history
    assert set(stats.rerouted_nets) == {
        n.name for n in design.nets_of_cell(name)
    }
    assert design.cells[name].x == new_x


def test_apply_moves_skips_current(routed):
    design, router = routed
    name = next(iter(design.cells))
    cell = design.cells[name]
    cand = MoveCandidate(name, (cell.x, cell.y, cell.orient))
    stats = apply_moves(design, router, {name: cand})
    assert stats.moved_cells == []
    assert stats.rerouted_nets == []


# ---------------------------------------------------------------- driver


def test_crp_framework_single_iteration(routed):
    design, router = routed
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    with observe() as obs:
        result = framework.run(1)
    assert len(result.iterations) == 1
    stats = result.iterations[0]
    assert stats.num_critical > 0
    assert stats.num_candidates >= stats.num_critical
    (span,) = obs.tracer.roots
    assert set(span.child_walls()) == {
        "crp.label", "crp.GCP", "crp.ECC", "crp.ILP", "crp.UD"
    }
    # Design must remain perfectly legal after movement.
    assert check_legality(design).is_legal


def test_crp_framework_improves_route_cost():
    design = fresh_small(seed=11)
    router = GlobalRouter(design)
    router.route_all()
    total_before = sum(router.net_costs().values())
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    framework.run(2)
    total_after = sum(router.net_costs().values())
    assert total_after <= total_before * 1.001


def test_crp_framework_history_accumulates(routed):
    design, router = routed
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    framework.run(2)
    assert design.critical_history
    # each further iteration adds its own step spans for Fig. 3
    with observe() as obs:
        framework.run(1)
    assert [span.name for span in obs.tracer.roots] == ["crp.iteration"]
    assert {"crp.GCP", "crp.ECC", "crp.UD"} <= set(obs.tracer.roots[0].child_walls())


def test_use_penalty_ablation_changes_estimates():
    """CrpConfig.use_penalty=False must actually go congestion-blind."""
    from repro.benchgen.generator import DesignSpec, generate_design

    def run(up):
        design = fresh_small(seed=13)
        router = GlobalRouter(design)
        router.route_all()
        framework = CrpFramework(design, router, CrpConfig(seed=0, use_penalty=up))
        framework.run(2)
        return router.total_wirelength_dbu(), router.total_vias()

    on = run(True)
    off = run(False)
    assert on != off  # the knob is live
