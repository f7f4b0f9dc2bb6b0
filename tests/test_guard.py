"""Tests for repro.guard: deadlines, fault injection, the ILP fallback
ladder, the CR&P iteration transaction, and flow stage isolation."""

import gc
import time

import pytest

from repro.db import check_legality
from repro.droute import DetailedRouter, router as droute_router
from repro.flow import run_flow
from repro.groute import GlobalRouter
from repro.guard import (
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    check_deadline,
    current_deadline,
    deadline_scope,
    fault_point,
    use_faults,
)
from repro.ilp import IlpModel, Sense, SolveStatus, solve
from repro.ilp.greedy import solve_greedy
from repro.core import CrpConfig, CrpFramework
from repro.obs import observe

from helpers import fresh_small


@pytest.fixture()
def routed():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    return design, router


def tiny_model() -> IlpModel:
    """Pick the cheaper of two mutually exclusive options."""
    model = IlpModel("tiny")
    a = model.add_binary("a", cost=2.0)
    b = model.add_binary("b", cost=1.0)
    model.add_exactly_one([a, b], name="one")
    return model


# --------------------------------------------------------------- deadlines


def test_no_scope_is_unbounded():
    assert current_deadline() is None
    check_deadline("anywhere")  # no-op


def test_none_budget_is_noop():
    with deadline_scope(None) as deadline:
        assert deadline is None
        assert current_deadline() is None
        check_deadline("site")


def test_zero_budget_expires_immediately():
    with deadline_scope(0.0, name="t"):
        with pytest.raises(DeadlineExceeded) as err:
            check_deadline("unit.site")
    assert err.value.site == "unit.site"
    assert err.value.name == "t"
    # scope closed: checks pass again
    check_deadline("unit.site")


def test_outer_deadline_fires_inside_looser_inner():
    with deadline_scope(0.0, name="outer"):
        with deadline_scope(60.0, name="inner"):
            assert current_deadline().name == "inner"
            with pytest.raises(DeadlineExceeded) as err:
                check_deadline("nested")
    assert err.value.name == "outer"


def test_deadline_hit_is_counted():
    with observe() as obs:
        with deadline_scope(0.0, name="x"):
            with pytest.raises(DeadlineExceeded):
                check_deadline("s")
        assert obs.metrics.counter("guard.deadline_hits") == 1
        assert obs.metrics.counter("guard.deadline.x") == 1


# --------------------------------------------------------------- faults


def test_fault_point_without_plan_is_noop():
    assert fault_point("nowhere") is None


def test_fault_fail_force_delay_and_counts():
    plan = (
        FaultPlan()
        .fail("site.fail")
        .force("site.force", "payload", times=2)
        .delay("site.delay", 0.01)
    )
    with use_faults(plan):
        with pytest.raises(FaultInjected):
            fault_point("site.fail")
        assert fault_point("site.fail") is None  # times=1 exhausted
        assert fault_point("site.force") == "payload"
        assert fault_point("site.force") == "payload"
        assert fault_point("site.force") is None
        t0 = time.perf_counter()
        assert fault_point("site.delay") is None
        assert time.perf_counter() - t0 >= 0.01
    assert plan.fired("site.fail") == 1
    assert plan.fired("site.force") == 2
    assert plan.fired() == 4
    # plan uninstalled on exit
    assert fault_point("site.force") is None


def test_fault_custom_exception_class():
    with use_faults(FaultPlan().fail("s", exc=KeyError)):
        with pytest.raises(KeyError):
            fault_point("s")


def test_unlimited_fault_times():
    with use_faults(FaultPlan().force("s", 1, times=-1)) as plan:
        for _ in range(5):
            assert fault_point("s") == 1
    assert plan.fired("s") == 5


# ---------------------------------------------------------------- ladder


def test_ladder_falls_back_on_backend_exception():
    with use_faults(FaultPlan().fail("ilp.scipy")), observe() as obs:
        solution = solve(tiny_model(), backend="auto")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.backend == "bnb"
        assert solution.chosen() == ["b"]
        assert obs.metrics.counter("guard.fallbacks") >= 1
        assert obs.metrics.counter("guard.fallback.scipy") == 1


def test_ladder_cross_checks_single_infeasible_verdict():
    # One backend lying about infeasibility must not lose the solve.
    with use_faults(FaultPlan().force("ilp.scipy", "infeasible")):
        solution = solve(tiny_model(), backend="auto")
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.backend == "bnb"


def test_ladder_reaches_greedy_when_all_exact_rungs_die():
    plan = FaultPlan().fail("ilp.scipy").fail("ilp.bnb").fail("ilp.exhaustive")
    with use_faults(plan), observe() as obs:
        solution = solve(tiny_model(), backend="auto")
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.ok
        assert solution.backend == "greedy"
        assert obs.metrics.counter("guard.fallbacks") == 3


def test_ladder_agreed_infeasible_is_trusted():
    model = IlpModel("impossible")
    a = model.add_binary("a", cost=1.0)
    b = model.add_binary("b", cost=1.0)
    model.add_constraint([(a, 1.0), (b, 1.0)], Sense.GE, 3.0, name="ge3")
    solution = solve(model, backend="auto")
    assert solution.status is SolveStatus.INFEASIBLE
    assert not solution.ok


def test_ladder_deadline_skips_to_greedy():
    with deadline_scope(0.0, name="solve"):
        solution = solve(tiny_model(), backend="auto")
    assert solution.ok
    assert solution.backend == "greedy"


def test_solve_budget_param_opens_scope():
    # A generous per-solve budget leaves the exact path untouched.
    solution = solve(tiny_model(), backend="auto", budget_s=60.0)
    assert solution.status is SolveStatus.OPTIMAL


def test_named_backend_failure_counts_and_reraises():
    with use_faults(FaultPlan().fail("ilp.scipy")), observe() as obs:
        with pytest.raises(FaultInjected):
            solve(tiny_model(), backend="scipy")
        assert obs.metrics.counter("ilp.status.error") == 1
        assert obs.metrics.counter("ilp.solves") == 1


# ---------------------------------------------------------------- greedy


def test_greedy_respects_exclusions():
    solution = solve_greedy(tiny_model())
    assert solution.status is SolveStatus.FEASIBLE
    assert solution.chosen() == ["b"]


def test_greedy_rejects_non_binary_models():
    model = IlpModel("intish")
    model.add_variable("x", cost=1.0, lower=0.0, upper=3.0, integral=True)
    with pytest.raises(ValueError):
        solve_greedy(model)


def test_greedy_empty_model_is_optimal():
    assert solve_greedy(IlpModel("empty")).status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------- groute


def test_maze_disconnect_fault_degrades_to_pattern_routes():
    design = fresh_small()
    with use_faults(FaultPlan().force("groute.maze", "disconnect", times=-1)):
        router = GlobalRouter(design)
        router.route_all()
    assert len(router.routes) == len(design.nets)
    assert router.accounting_errors() == []


def test_initial_routing_propagates_deadline():
    design = fresh_small()
    router = GlobalRouter(design)
    with deadline_scope(0.0, name="gr"):
        with pytest.raises(DeadlineExceeded):
            router.route_all()


def test_improve_degrades_gracefully_under_deadline(routed):
    _, router = routed
    with observe() as obs:
        with deadline_scope(0.0, name="rrr"):
            completed = router.improve(rrr_passes=2)
        assert completed == 0
        assert obs.metrics.counter("groute.rrr_deadline_stops") == 1
    assert router.accounting_errors() == []


def test_route_copy_restore_roundtrip(routed):
    design, router = routed
    net = sorted(design.nets)[0]
    snapshot = router.copy_route(net)
    router.reroute_nets([net])
    router.restore_route(net, snapshot)
    assert router.accounting_errors() == []


# ------------------------------------------------------------ transaction


def test_forced_invariant_violation_rolls_back(routed):
    design, router = routed
    before_pos = {n: (c.x, c.y) for n, c in design.cells.items()}
    before_wl = router.total_wirelength_dbu()
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    plan = FaultPlan().force("crp.invariants", "forced-violation")
    with use_faults(plan), observe() as obs:
        stats = framework.run_iteration(0)
        assert obs.metrics.counter("guard.rollbacks") == 1
    assert plan.fired("crp.invariants") == 1
    assert stats.rolled_back
    assert "forced-violation" in stats.rollback_reasons
    assert stats.num_moved == 0
    # the rollback restored the exact pre-iteration state
    assert {n: (c.x, c.y) for n, c in design.cells.items()} == before_pos
    assert router.total_wirelength_dbu() == before_wl
    assert router.accounting_errors() == []
    assert check_legality(design).is_legal


def test_update_step_exception_rolls_back(routed):
    design, router = routed
    before_pos = {n: (c.x, c.y) for n, c in design.cells.items()}
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    plan = FaultPlan().fail("crp.update.reroute")
    with use_faults(plan):
        stats = framework.run_iteration(0)
    assert plan.fired("crp.update.reroute") == 1
    assert stats.rolled_back
    assert stats.num_moved == 0
    assert {n: (c.x, c.y) for n, c in design.cells.items()} == before_pos
    assert router.accounting_errors() == []
    assert check_legality(design).is_legal


def test_worst_selection_is_contained_by_guard(routed):
    design, router = routed
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    pre_cost = framework._total_route_cost()
    with use_faults(FaultPlan().force("crp.select", "worst")) as plan:
        framework.run_iteration(0)
    assert plan.fired("crp.select") == 1
    post_cost = framework._total_route_cost()
    tolerance = framework.guard.cost_tolerance
    assert post_cost <= pre_cost * (1.0 + tolerance) + 1e-9
    assert check_legality(design).is_legal
    assert router.accounting_errors() == []


# ------------------------------------------------------------------ flow


def test_flow_stage_failure_is_isolated():
    design = fresh_small()
    with use_faults(FaultPlan().fail("flow.DR")):
        result = run_flow(design, mode="baseline")
    assert result.failed
    assert result.failure is not None
    assert result.failure.stage == "DR"
    assert result.failure.error_type == "FaultInjected"
    assert result.failure.traceback
    assert "GR" in result.runtime
    assert "FAILED" in result.summary()
    assert result.metrics["counters"]["flow.stage_failures"] == 1


def test_flow_budget_fails_first_stage_cleanly():
    design = fresh_small()
    result = run_flow(design, mode="baseline", budget_s=0.0)
    assert result.failed
    assert result.failure.stage == "GR"
    assert result.failure.error_type == "DeadlineExceeded"


def test_flow_crp_stage_isolated():
    design = fresh_small()
    with use_faults(FaultPlan().fail("flow.CRP")):
        result = run_flow(design, mode="crp", skip_detailed=True)
    assert result.failed
    assert result.failure.stage == "CRP"


@pytest.mark.parametrize("was_enabled", [True, False])
def test_run_flow_pauses_gc_and_leaves_it_as_found(was_enabled):
    """Every way out of ``run_flow`` — success, a failed stage, an expired
    budget, an argument error before any stage — restores the collector
    to the state it was called in; inside, it is off."""
    inside = []

    class Probe(RuntimeError):  # built by the armed site, inside the flow
        def __init__(self, *args):
            super().__init__(*args)
            inside.append(gc.isenabled())

    def failed_stage():
        with use_faults(FaultPlan().fail("flow.GR", exc=Probe)):
            assert run_flow(fresh_small(), mode="baseline").failure.stage == "GR"

    def bad_mode():
        with pytest.raises(ValueError):
            run_flow(fresh_small(), mode="no-such-mode")

    exits = (
        lambda: run_flow(fresh_small(), mode="crp", skip_detailed=True),
        failed_stage,
        lambda: run_flow(fresh_small(), mode="baseline", budget_s=0.0),
        bad_mode,
    )
    try:
        for leave in exits:
            gc.enable() if was_enabled else gc.disable()
            leave()
            assert gc.isenabled() is was_enabled, leave
    finally:
        gc.enable()
    assert inside == [False]


def test_standalone_detailed_routing_pauses_gc_once_per_call(monkeypatch):
    """The pause spans ``route_all`` — it holds between searches, where
    the per-search pause it replaces had the collector back on."""
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    between_searches = []
    monkeypatch.setattr(
        droute_router,
        "check_deadline",
        lambda site: between_searches.append(gc.isenabled()),
    )
    assert gc.isenabled()
    DetailedRouter(design).route_all(router.guides())
    assert gc.isenabled()
    assert between_searches and not any(between_searches)


def test_flow_survives_injected_solver_failure_and_bad_iteration():
    """The ISSUE acceptance scenario: a scipy-backend failure plus one
    forced-bad CR&P iteration must not sink the flow."""
    design = fresh_small()
    plan = (
        FaultPlan()
        .fail("ilp.scipy", times=1)
        .force("crp.invariants", "forced-violation", times=1)
    )
    with use_faults(plan):
        result = run_flow(design, mode="crp", crp_iterations=2,
                          skip_detailed=True)
    assert not result.failed
    counters = result.metrics["counters"]
    assert counters["guard.fallbacks"] >= 1
    assert counters["guard.rollbacks"] >= 1
    assert result.crp is not None and result.crp.rollbacks >= 1
    assert result.legal
    assert check_legality(design).is_legal


def test_crp_accounting_survives_fault_storm(routed):
    design, router = routed
    plan = (
        FaultPlan()
        .fail("ilp.scipy", times=2)
        .force("crp.invariants", "forced-violation", times=1)
    )
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    with use_faults(plan):
        framework.run(2)
    assert router.accounting_errors() == []
    assert check_legality(design).is_legal


def test_failure_report_summary():
    from repro.guard import FailureReport

    try:
        raise ValueError("boom")
    except ValueError as exc:
        report = FailureReport.from_exception("GR", exc)
    assert report.stage == "GR"
    assert report.error_type == "ValueError"
    assert "boom" in report.message
    assert "ValueError" in report.traceback
    assert "GR" in report.summary() and "ValueError" in report.summary()


# ------------------------------------------------------------------- CLI


def test_cli_run_exits_nonzero_on_stage_failure(capsys):
    from repro.cli import main

    with use_faults(FaultPlan().fail("flow.GR")):
        rc = main(["run", "-b", "ispd18_test1", "-m", "baseline",
                   "--skip-detailed"])
    assert rc != 0
    assert "FAILED" in capsys.readouterr().out


def test_cli_run_exits_nonzero_on_blown_budget(capsys):
    from repro.cli import main

    rc = main(["run", "-b", "ispd18_test1", "-m", "baseline",
               "--skip-detailed", "--budget", "0"])
    assert rc != 0
