"""Bit-exact parity suite for the incremental CR&P kernel.

The ECC cache and the O(dirty-nets) cost accounting must be pure
speedups: the cached/incremental paths are asserted *equal* — not
approximately equal — to the full-recompute references
(``oracles.crp``), over randomized designs and mutation sequences.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import numpy as np
import pytest

from helpers import RecordingLegalizer, fresh_small, slots_overlap
from oracles.crp import estimate_candidate_reference, full_recompute

from repro.core.config import CrpConfig
import repro.core.crp as crp_module
from repro.core.crp import CrpFramework
from repro.core.estimate import estimate_candidate_cost
from repro.core.candidates import MAX_TARGETS, MoveCandidate, generate_candidates
from repro.core.fastecc import EccCache
from repro.core.labeling import label_critical_cells
from repro.grid import CostField
from repro.groute import GlobalRouter
from repro.groute.costcache import NetCostCache
from repro.guard import IterationTransaction
from repro.legalizer import WindowLegalizer
from repro.obs import observe


def routed(seed: int = 42, **overrides) -> tuple:
    design = fresh_small(seed=seed, **overrides)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    return design, router


def snapshot(design, router) -> tuple:
    positions = sorted(
        (name, cell.x, cell.y, str(cell.orient))
        for name, cell in design.cells.items()
    )
    routes = sorted(
        (name, tuple(sorted(map(str, route.edges))))
        for name, route in router.routes.items()
    )
    return positions, routes


# ------------------------------------------------------------ ECC cache


@pytest.mark.parametrize("seed", [3, 42, 99])
def test_ecc_cache_matches_uncached_costs(seed):
    design, router = routed(seed=seed)
    config = CrpConfig()
    critical = label_critical_cells(
        design, router, config, random.Random(seed)
    )
    candidates = generate_candidates(design, critical, config)
    # CR&P prices on the router's field; [18] and the penalty ablation
    # on a penalty-free one
    for field in (router.field, CostField(router.graph, use_penalty=False)):
        cache = EccCache(router, field)
        with observe() as obs:
            for cell_candidates in candidates.values():
                for candidate in cell_candidates:
                    uncached = estimate_candidate_reference(
                        design, router, candidate, field
                    )
                    cached = estimate_candidate_cost(design, router, candidate, cache)
                    # bit-exact: same terminal walk, same RSMT, same DP op order
                    assert cached == uncached
                    # and a second query must hit the memo yet stay identical
                    again = estimate_candidate_cost(design, router, candidate, cache)
                    assert again == uncached
        assert obs.metrics.counter("crp.ecc_cache_hits") > 0


# ------------------------------------------------ O(dirty) cost accounting


def full_rescan(design, router) -> float:
    return sum(router._net_cost_fresh(name) for name in design.nets)


@pytest.mark.parametrize("seed", [5, 42])
def test_running_total_tracks_commit_and_rip(seed):
    design, router = routed(seed=seed)
    assert router.cost_cache is None  # routing alone never builds it
    rng = random.Random(seed)
    names = sorted(router.routes)
    assert router.total_route_cost() == full_rescan(design, router)
    assert isinstance(router.cost_cache, NetCostCache)
    with observe() as obs:
        for _ in range(12):
            name = rng.choice(names)
            action = rng.random()
            if action < 0.4 and name in router.routes:
                router.rip_up(name)
            elif name in design.nets:
                if name in router.routes:
                    router.rip_up(name)
                router.route_net(name)
            assert router.total_route_cost() == full_rescan(design, router)
    # rescans must stay sub-linear: untouched nets never re-price
    assert obs.metrics.counter("crp.cost_cache_hits") > 0


def test_running_total_survives_out_of_band_invalidation():
    design, router = routed(seed=11)
    before = router.total_route_cost()
    router.invalidate_cost_fields()  # drops every cached value
    assert router.total_route_cost() == before == full_rescan(design, router)


def test_running_total_survives_rollback():
    design, router = routed(seed=13)
    baseline = router.total_route_cost()
    positions0, routes0 = snapshot(design, router)
    moved = next(iter(design.cells))
    cell0 = design.cells[moved]
    chosen = {
        moved: MoveCandidate(
            cell=moved,
            position=(cell0.x, cell0.y, cell0.orient),
            displacement=1.0,
        )
    }
    txn = IterationTransaction.capture(design, router, chosen)
    # mutate: move a cell and reroute one of its nets
    cell = design.cells[moved]
    target = sorted(router.routes)[0]
    design.move_cell(moved, cell.x, cell.y, cell.orient)
    router.rip_up(target)
    router.route_net(target)
    txn.rollback()
    assert snapshot(design, router) == (positions0, routes0)
    assert router.total_route_cost() == baseline == full_rescan(design, router)


# ------------------------------------------------------- window solver


def highs_optimum(options) -> float | None:
    """Optimal Eq. 11 objective of one window, from a HiGHS model built here."""
    optimize = pytest.importorskip("scipy.optimize")
    slots = [slot for cell_slots in options for slot in cell_slots]
    owner = [i for i, cell_slots in enumerate(options) for _ in cell_slots]
    one_per_cell = np.zeros((len(options), len(slots)))
    one_per_cell[owner, np.arange(len(slots))] = 1.0
    sites = sorted({(slot[1], s) for slot in slots for s in range(slot[2], slot[3])})
    one_per_site = np.array(
        [
            [float(slot[1] == row and slot[2] <= site < slot[3]) for slot in slots]
            for row, site in sites
        ]
    )
    result = optimize.milp(
        c=np.array([slot[0] for slot in slots]),
        constraints=[
            optimize.LinearConstraint(one_per_cell, 1.0, 1.0),
            optimize.LinearConstraint(one_per_site, -np.inf, 1.0),
        ],
        integrality=np.ones(len(slots)),
        bounds=optimize.Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if result.status == 2:
        return None
    assert result.success, result.message
    return float(result.fun)


@pytest.mark.parametrize("seed", [3, 42, 77])
def test_window_solver_is_optimal_against_highs(seed):
    design, router = routed(seed=seed)
    config = CrpConfig()
    CrpFramework(design, router, config)
    critical = label_critical_cells(
        design, router, config, random.Random(seed)
    )
    legalizer = RecordingLegalizer(
        design,
        n_sites=config.n_sites,
        n_rows=config.n_rows,
        max_cells=config.max_cells,
        max_targets=MAX_TARGETS,
    )
    for name in critical:
        legalizer.run(name)
    assert legalizer.windows
    for options, outcome in legalizer.windows:
        reference = highs_optimum(options)
        if outcome is None:
            assert reference is None
            continue
        assignments, objective = outcome
        assert abs(objective - reference) <= 1e-9
        # feasible: every cell on one of its free slots (the critical
        # cell's only slot is its target) and no two cells on one site
        assert len(options[0]) == 1
        picks = []
        for cell_slots, placed in zip(options, assignments):
            on_slot = [slot for slot in cell_slots if slot[4] == placed]
            assert len(on_slot) == 1
            picks.extend(on_slot)
        assert not any(
            slots_overlap(a, b) for a, b in itertools.combinations(picks, 2)
        )


def test_traced_iteration_publishes_window_counters():
    design, router = routed(seed=9)
    with observe() as observation:
        CrpFramework(design, router, CrpConfig()).run(iterations=1)
    assert observation.metrics.counter("crp.window_solves") > 0
    assert observation.metrics.counter("crp.window_tie_breaks") > 0


def test_window_repeat_solves_are_deterministic():
    design, router = routed(seed=21)
    config = CrpConfig()
    CrpFramework(design, router, config)
    critical = label_critical_cells(design, router, config, random.Random(21))
    legalizer = WindowLegalizer(
        design,
        n_sites=config.n_sites,
        n_rows=config.n_rows,
        max_cells=config.max_cells,
        max_targets=MAX_TARGETS,
    )

    def solves(name):
        """The cell's candidates, and the window solves that made them."""
        with observe() as obs:
            found = [
                (c.position, dict(c.conflict_moves), c.displacement)
                for c in legalizer.run(name)
            ]
        return found, obs.metrics.counter("crp.window_solves")

    total = 0
    for name in critical:
        first, once = solves(name)
        assert solves(name) == (first, once)
        total += once
    assert total > 0


# --------------------------------------------------- end-to-end iteration


def arm(framework, fast: bool):
    """The framework as shipped, or routed through the references."""
    return contextlib.nullcontext(framework) if fast else full_recompute(framework)


def run_iterations(seed: int, fast: bool, k: int = 2):
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    with arm(CrpFramework(design, router, CrpConfig()), fast) as framework:
        framework.run(iterations=k)
        total = router.total_route_cost()
    return snapshot(design, router), total


@pytest.mark.parametrize("seed", [9, 42])
def test_framework_fast_slow_parity(seed):
    assert run_iterations(seed, fast=True) == run_iterations(seed, fast=False)


def test_guarded_rollback_keeps_parity(monkeypatch):
    # every iteration's check reports a violation, so every one rolls back
    monkeypatch.setattr(crp_module, "iteration_violations", lambda *args: ["forced"])

    def run(fast: bool):
        design = fresh_small(seed=55)
        router = GlobalRouter(design)
        router.route_all(rrr_passes=2)
        framework = CrpFramework(design, router, CrpConfig())
        with arm(framework, fast):
            result = framework.run(iterations=2)
        return snapshot(design, router), [
            stats.rolled_back for stats in result.iterations
        ]

    fast = run(True)
    assert fast == run(False)
    assert fast[1] == [True, True]
