"""Tests for repro.guard: fault injection, the CR&P iteration
transaction, and flow stage isolation.  Each fault site is shown to fire
and to change an outcome."""

import gc

import pytest

from repro.db import check_legality
from repro.droute import DetailedRouter, router as droute_router
from repro.flow import run_flow
from repro.groute import GlobalRouter
from repro.guard import (
    FaultInjected,
    FaultPlan,
    fault_point,
    iteration_violations,
    use_faults,
)
from repro.guard.transaction import COST_TOLERANCE
from repro.benchgen import make_design
from repro.ilp import IlpModel, solve
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


# --------------------------------------------------------------- faults


def test_fault_point_without_plan_is_noop():
    assert fault_point("nowhere") is None


def test_fault_fail_force_and_counts():
    plan = FaultPlan().fail("site.fail").force("site.force", "payload", times=2)
    with use_faults(plan):
        with pytest.raises(FaultInjected):
            fault_point("site.fail")
        assert fault_point("site.fail") is None  # times=1 exhausted
        assert fault_point("site.force") == "payload"
        assert fault_point("site.force") == "payload"
        assert fault_point("site.force") is None
    assert plan.fired("site.fail") == 1
    assert plan.fired("site.force") == 2
    assert plan.fired() == 3
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


# ------------------------------------------------------------------- ilp


def test_forced_solver_error_keeps_every_cell_put():
    """A non-optimal selection solve moves nothing: the iteration keeps
    every cell where it was, and the flow finishes legal."""
    clean = run_flow(fresh_small(), mode="crp", crp_iterations=1, skip_detailed=True)
    assert clean.crp.iterations[0].num_moved > 0
    design = fresh_small()
    with use_faults(FaultPlan().force("ilp.scipy", "error")) as plan:
        result = run_flow(design, mode="crp", crp_iterations=1, skip_detailed=True)
    assert plan.fired("ilp.scipy") == 1
    assert result.metrics["counters"]["ilp.status.error"] == 1
    (stats,) = result.crp.iterations
    assert stats.num_moved == 0 and not stats.rolled_back
    assert not design.moved_history
    assert not result.failed and result.legal


def test_raising_solver_fails_the_crp_stage():
    """A solve that raises is not caught in ``repro.ilp``: the CR&P stage
    fails with a FailureReport, and what GR did survives."""
    gr_only = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    with use_faults(FaultPlan().fail("ilp.scipy")) as plan:
        result = run_flow(fresh_small(), mode="crp", crp_iterations=2, skip_detailed=True)
    assert plan.fired("ilp.scipy") == 1
    assert result.failed
    assert result.failure.stage == "CRP"
    assert result.failure.error_type == "FaultInjected"
    assert result.crp is None and "GR" in result.runtime

    def groute(counters):
        return {k: v for k, v in counters.items() if k.startswith("groute.")}

    assert groute(result.failure.metrics["counters"]) == groute(
        gr_only.metrics["counters"]
    ) != {}


def test_named_backend_failure_counts_and_reraises():
    with use_faults(FaultPlan().fail("ilp.scipy")), observe() as obs:
        with pytest.raises(FaultInjected):
            solve(tiny_model())
        assert obs.metrics.counter("ilp.status.error") == 1
        assert obs.metrics.counter("ilp.solves") == 1


# ---------------------------------------------------------------- groute


def test_maze_disconnect_fault_degrades_to_pattern_routes():
    clean = GlobalRouter(fresh_small())
    clean.route_all()
    design = fresh_small()
    plan = FaultPlan().force("groute.maze", "disconnect", times=-1)
    with use_faults(plan), observe() as obs:
        router = GlobalRouter(design)
        router.route_all()
        assert obs.metrics.counter("groute.maze_fallbacks") == 273
    assert plan.fired("groute.maze") == 273
    assert len(router.routes) == len(design.nets)
    assert router.accounting_errors() == []
    assert clean.total_wirelength_dbu() == 442_725
    assert router.total_wirelength_dbu() == 485_775


def test_route_copy_restore_roundtrip(routed):
    design, router = routed
    net = sorted(design.nets)[0]
    snapshot = router.copy_route(net)
    router.reroute_nets([net])
    router.restore_route(net, snapshot)
    assert router.accounting_errors() == []


# ------------------------------------------------------------ transaction


def test_transaction_rolls_back_a_production_iteration():
    """No fault plan: on ispd18_test1 at k = 10 the cost check rolls back
    iteration 4, and only it."""
    result = run_flow(
        make_design("ispd18_test1"), mode="crp", crp_iterations=10, skip_detailed=True
    )
    assert not result.failed and result.legal
    rolled = [stats for stats in result.crp.iterations if stats.rolled_back]
    assert [stats.iteration for stats in rolled] == [4]
    assert rolled[0].rollback_reasons == [
        "route cost regressed 936.618 -> 956.931 (tolerance 2.0%)"
    ]
    assert rolled[0].num_moved == 0
    assert result.metrics["counters"]["guard.rollbacks"] == 1


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


def test_invariant_checks_name_each_violation(routed):
    """The legality and accounting checks fire on a broken state; no
    suite flow has produced one (the production rollback is the cost
    check's)."""
    design, router = routed
    pre_cost = router.total_route_cost()
    assert iteration_violations(design, router, pre_cost) == []
    a, b = [name for name, cell in design.cells.items() if not cell.fixed][:2]
    other = design.cells[b]
    design.move_cell(a, other.x, other.y, other.orient)
    router.graph.wire_usage[0][0, 0] += 1
    violations = iteration_violations(design, router, pre_cost)
    assert any(v.startswith("illegal placement") for v in violations), violations
    assert any("wire demand mismatch on layer 0" in v for v in violations), violations


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
    pre_cost = router.total_route_cost()
    with use_faults(FaultPlan().force("crp.select", "worst")) as plan:
        framework.run_iteration(0)
    assert plan.fired("crp.select") == 1
    post_cost = router.total_route_cost()
    assert post_cost <= pre_cost * (1.0 + COST_TOLERANCE) + 1e-9
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


def test_flow_crp_stage_isolated():
    design = fresh_small()
    with use_faults(FaultPlan().fail("flow.CRP")):
        result = run_flow(design, mode="crp", skip_detailed=True)
    assert result.failed
    assert result.failure.stage == "CRP"


def test_flow_baseline_stage_isolated():
    with use_faults(FaultPlan().fail("flow.BASELINE")) as plan:
        result = run_flow(fresh_small(), mode="fontana", skip_detailed=True)
    assert plan.fired("flow.BASELINE") == 1
    assert result.failed
    assert result.failure.stage == "BASELINE"
    assert result.fontana is None


@pytest.mark.parametrize("was_enabled", [True, False])
def test_run_flow_pauses_gc_and_leaves_it_as_found(was_enabled):
    """Every way out of ``run_flow`` — success, a failed stage, an
    argument error before any stage — restores the collector to the
    state it was called in; inside, it is off."""
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
    access_nodes = droute_router.access_nodes

    def probe(*args):
        between_searches.append(gc.isenabled())
        return access_nodes(*args)

    monkeypatch.setattr(droute_router, "access_nodes", probe)
    assert gc.isenabled()
    DetailedRouter(design).route_all(router.guides())
    assert gc.isenabled()
    assert between_searches and not any(between_searches)


def test_flow_survives_injected_solver_failure_and_bad_iteration():
    """A solver error plus one forced-bad CR&P iteration must not sink
    the flow."""
    design = fresh_small()
    plan = (
        FaultPlan()
        .force("ilp.scipy", "error", times=1)
        .force("crp.invariants", "forced-violation", times=1)
    )
    with use_faults(plan):
        result = run_flow(design, mode="crp", crp_iterations=2,
                          skip_detailed=True)
    assert plan.fired("ilp.scipy") == 1
    assert not result.failed
    counters = result.metrics["counters"]
    assert counters["ilp.status.error"] == 1
    assert counters["guard.rollbacks"] >= 1
    assert result.crp is not None and result.crp.rollbacks >= 1
    assert result.legal
    assert check_legality(design).is_legal


def test_crp_accounting_survives_fault_storm(routed):
    design, router = routed
    plan = (
        FaultPlan()
        .force("ilp.scipy", "error", times=2)
        .force("crp.invariants", "forced-violation", times=1)
    )
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    with use_faults(plan):
        framework.run(2)
    assert plan.fired("ilp.scipy") == 2
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

