"""Unit tests for the CR&P core: labeling, candidates, estimation,
selection, update, and the iteration driver."""

import random

import pytest

from repro.db import check_legality
from repro.groute import GlobalRouter
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

from helpers import fresh_small


@pytest.fixture()
def routed():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    return design, router


# ---------------------------------------------------------------- config


def test_config_validation():
    CrpConfig().validate()
    with pytest.raises(ValueError):
        CrpConfig(gamma=0.0).validate()
    with pytest.raises(ValueError):
        CrpConfig(gamma=1.5).validate()
    with pytest.raises(ValueError):
        CrpConfig(temperature=0).validate()
    with pytest.raises(ValueError):
        CrpConfig(n_rows=0).validate()
    with pytest.raises(ValueError, match="ilp_backend"):
        CrpConfig(ilp_backend="scipi").validate()
    for backend in ("auto", "ladder", "scipy", "bnb", "exhaustive", "greedy"):
        CrpConfig(ilp_backend=backend).validate()


# -------------------------------------------------------------- labeling


def test_labeling_respects_gamma(routed):
    design, router = routed
    config = CrpConfig(gamma=0.1, seed=1)
    critical = label_critical_cells(design, router, config, random.Random(1))
    movable = [c for c in design.cells.values() if not c.fixed]
    assert len(critical) <= max(1, int(0.1 * len(movable)))


def test_labeling_no_connected_pairs(routed):
    design, router = routed
    config = CrpConfig(gamma=0.6, seed=1)
    critical = set(
        label_critical_cells(design, router, config, random.Random(1))
    )
    for name in critical:
        assert not (design.connected_cells(name) & (critical - {name}))


def test_labeling_prioritizes_expensive_cells(routed):
    design, router = routed
    config = CrpConfig(gamma=0.2, seed=3)
    critical = label_critical_cells(design, router, config, random.Random(3))
    costs = [router.cell_cost(name) for name in critical]
    movable = [c.name for c in design.cells.values() if not c.fixed]
    median_cost = sorted(router.cell_cost(n) for n in movable)[len(movable) // 2]
    # Selected cells skew expensive (independence constraint allows
    # exceptions, but the average must clear the median).
    assert sum(costs) / len(costs) >= median_cost


def test_labeling_history_damps_reselection(routed):
    design, router = routed
    config = CrpConfig(gamma=0.6, temperature=1.0, seed=5)
    first = set(label_critical_cells(design, router, config, random.Random(5)))
    assert design.critical_history >= first
    # Mark everything moved too: acceptance drops to exp(-2) ~ 13.5%.
    design.moved_history.update(first)
    repeats = []
    for trial in range(20):
        again = label_critical_cells(
            design, router, config, random.Random(100 + trial)
        )
        repeats.append(len(first & set(again)) / max(1, len(again)))
    assert sum(repeats) / len(repeats) < 0.6


def test_labeling_skips_fixed(routed):
    design, router = routed
    some = next(iter(design.cells.values()))
    some.fixed = True
    config = CrpConfig(seed=2)
    critical = label_critical_cells(design, router, config, random.Random(2))
    assert some.name not in critical


# ------------------------------------------------------------ candidates


def test_generate_candidates_includes_current(routed):
    design, router = routed
    config = CrpConfig(seed=1)
    critical = label_critical_cells(design, router, config, random.Random(1))[:5]
    candidates = generate_candidates(design, critical, config)
    for name in critical:
        assert candidates[name], name
        first = candidates[name][0]
        cell = design.cells[name]
        assert first.position == (cell.x, cell.y, cell.orient)
        assert first.is_current


def test_candidates_are_legal_positions(routed):
    design, router = routed
    config = CrpConfig(seed=1, max_targets=4)
    critical = label_critical_cells(design, router, config, random.Random(1))[:4]
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
    name = max(design.cells, key=lambda n: router.cell_cost(n))
    cell = design.cells[name]
    cand = MoveCandidate(cell=name, position=(cell.x, cell.y, cell.orient))
    estimated = estimate_candidate_cost(design, router, cand)
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
    here = estimate_candidate_cost(
        design, router, MoveCandidate("a", (cell.x, cell.y, cell.orient))
    )
    far_row = design.rows[-1]
    far = estimate_candidate_cost(
        design,
        router,
        MoveCandidate(
            "a",
            (far_row.site_x(far_row.num_sites - 5), far_row.origin_y, far_row.orient),
        ),
    )
    assert far > here


def test_estimate_includes_conflicts_option(routed):
    design, router = routed
    name = next(
        n for n in design.cells
        if not design.cells[n].fixed and design.connected_cells(n)
    )
    neighbour = next(iter(design.connected_cells(name)))
    cell = design.cells[name]
    other = design.cells[neighbour]
    cand = MoveCandidate(
        cell=name,
        position=(cell.x, cell.y, cell.orient),
        conflict_moves={neighbour: (other.x, other.y, other.orient)},
    )
    base = estimate_candidate_cost(design, router, cand)
    extended = estimate_candidate_cost(
        design, router, cand, include_conflicts=True
    )
    assert extended >= base


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
    framework = CrpFramework(design, router, CrpConfig(seed=1, max_targets=3))
    result = framework.run(1)
    assert len(result.iterations) == 1
    stats = result.iterations[0]
    assert stats.num_critical > 0
    assert stats.num_candidates >= stats.num_critical
    assert set(stats.runtime) == {"label", "GCP", "ECC", "ILP", "UD"}
    # Design must remain perfectly legal after movement.
    assert check_legality(design).is_legal


def test_crp_framework_improves_route_cost():
    design = fresh_small(seed=11)
    router = GlobalRouter(design)
    router.route_all()
    total_before = sum(router.net_cost(n) for n in design.nets)
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    framework.run(2)
    total_after = sum(router.net_cost(n) for n in design.nets)
    assert total_after <= total_before * 1.001


def test_crp_framework_history_accumulates(routed):
    design, router = routed
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    framework.run(2)
    assert design.critical_history
    # runtime breakdown keys available for Fig. 3
    breakdown = framework.run(1).runtime_breakdown()
    assert {"label", "GCP", "ECC", "ILP", "UD"} <= set(breakdown)


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


# ------------------------------------------------- run_until_converged


def _stub_framework(costs):
    """A CrpFramework shell whose cost trace is the given schedule.

    ``costs[0]`` is the pre-loop baseline; each ``run_iteration`` call
    advances to the next entry.
    """
    from repro.core.crp import IterationStats

    framework = CrpFramework.__new__(CrpFramework)
    schedule = list(costs)
    state = {"i": 0}

    def total_cost():
        return schedule[min(state["i"], len(schedule) - 1)]

    def run_iteration(k, pre_cost=None):
        state["i"] += 1
        return IterationStats(iteration=k)

    framework._total_route_cost = total_cost
    framework.run_iteration = run_iteration
    return framework


def test_converged_zero_cost_does_not_divide():
    # previous == 0 must not raise ZeroDivisionError; a zero-cost design
    # has nothing to gain, so the loop stops after `patience` tries.
    framework = _stub_framework([0.0, 0.0, 0.0, 0.0, 0.0])
    result = framework.run_until_converged(max_iterations=10, patience=2)
    assert len(result.iterations) == 2


def test_converged_patience_resets_after_good_iteration():
    # stale, good (reset), stale, stale -> stop at 4 iterations
    framework = _stub_framework([100.0, 99.99, 80.0, 79.999, 79.998])
    result = framework.run_until_converged(
        max_iterations=10, min_gain=0.001, patience=2
    )
    assert len(result.iterations) == 4


def test_converged_max_iterations_cutoff():
    # every iteration improves 10%: only max_iterations can stop it
    costs = [100.0 * (0.9 ** i) for i in range(30)]
    framework = _stub_framework(costs)
    result = framework.run_until_converged(max_iterations=5, min_gain=0.001)
    assert len(result.iterations) == 5
