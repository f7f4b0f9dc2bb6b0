"""Tests for repro.guard: the CR&P iteration transaction and flow stage
isolation.  Each recovery path is reached by a stand-in at the boundary
it crosses (a solve, a maze search, the selection, the update step's
reroute, a stage entry) and shown to change an outcome; the forced
violation is the ``crp.invariants`` fault plan."""

import ast
import gc
from pathlib import Path

import pytest

import repro.core.crp as crp_module
import repro.groute.router as groute_router
from repro.baseline import FontanaBaseline
from repro.db import check_legality
from repro.droute import DetailedRouter, router as droute_router
from repro.flow import run_flow
from repro.groute import GlobalRouter
from repro.guard import FaultPlan, fault_point, iteration_violations, use_faults
from repro.guard.transaction import COST_TOLERANCE
from repro.benchgen import make_design
from repro.ilp import IlpModel, Solution, SolveStatus, scipy_backend, solve
from repro.core import CrpConfig, CrpFramework
from repro.obs import observe

from helpers import fresh_small


class Injected(RuntimeError):
    """What a stand-in raises where a recovery path begins."""


def raise_injected(*args, **kwargs):
    raise Injected("injected at a recovery boundary")


def break_solves(monkeypatch, *outcomes) -> list:
    """The next solves end in ``outcomes`` in turn -- a status, or an
    exception to raise -- without running HiGHS; later ones run.

    Returns the outcomes used so far, in order.
    """
    real = scipy_backend.solve_scipy
    pending = iter(outcomes)
    used = []

    def stand_in(model):
        outcome = next(pending, None)
        if outcome is None:
            return real(model)
        used.append(outcome)
        if isinstance(outcome, Exception):
            raise outcome
        return Solution(status=outcome)

    monkeypatch.setattr(scipy_backend, "solve_scipy", stand_in)
    return used


@pytest.fixture()
def routed():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    return design, router


def tiny_model() -> IlpModel:
    """Pick the cheaper of two mutually exclusive options."""
    model = IlpModel()
    a = model.add_binary(2.0)
    b = model.add_binary(1.0)
    model.add_exactly_one([a, b])
    return model


# --------------------------------------------------------------- faults


def test_fault_point_without_plan_is_noop():
    assert fault_point("nowhere") is None


def test_force_fires_once_and_only_inside_the_plan():
    with use_faults(FaultPlan().force("site", "payload")):
        assert fault_point("other") is None
        assert fault_point("site") == "payload"
        assert fault_point("site") is None  # one trigger per arming
    with use_faults(FaultPlan().force("site", "payload")):
        pass
    assert fault_point("site") is None  # plan uninstalled on exit


def test_only_the_transaction_calls_fault_point():
    """The forced invariant violation is the one fault site: every other
    recovery path is reached from a test by monkeypatching, so no other
    module of ``src/`` may call ``fault_point``."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    callers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "fault_point" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                callers.append(str(path.relative_to(src)))
    assert callers == ["guard/transaction.py"]


# ------------------------------------------------------------------- ilp


def test_forced_solver_error_keeps_every_cell_put(monkeypatch):
    """A non-optimal selection solve moves nothing: the iteration keeps
    every cell where it was, and the flow finishes legal."""
    clean = run_flow(fresh_small(), mode="crp", crp_iterations=1, skip_detailed=True)
    assert clean.crp.iterations[0].num_moved > 0
    design = fresh_small()
    broken = break_solves(monkeypatch, SolveStatus.ERROR)
    result = run_flow(design, mode="crp", crp_iterations=1, skip_detailed=True)
    assert broken == [SolveStatus.ERROR]
    assert result.metrics["counters"]["ilp.status.error"] == 1
    (stats,) = result.crp.iterations
    assert stats.num_moved == 0 and not stats.rolled_back
    assert not design.moved_history
    assert not result.failed and result.legal


def test_raising_solver_fails_the_crp_stage(monkeypatch):
    """A solve that raises is not caught in ``repro.ilp``: the CR&P stage
    fails with a FailureReport, and what GR did survives."""
    gr_only = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    broken = break_solves(monkeypatch, Injected("solver died"))
    result = run_flow(fresh_small(), mode="crp", crp_iterations=2, skip_detailed=True)
    assert len(broken) == 1
    assert result.failed
    assert result.failure.stage == "CRP"
    assert result.failure.error_type == "Injected"
    assert result.crp is None and "GR" in result.runtime

    def groute(counters):
        return {k: v for k, v in counters.items() if k.startswith("groute.")}

    assert groute(result.failure.metrics["counters"]) == groute(
        gr_only.metrics["counters"]
    ) != {}


def test_named_backend_failure_counts_and_reraises(monkeypatch):
    break_solves(monkeypatch, Injected("solver died"))
    with observe() as obs:
        with pytest.raises(Injected):
            solve(tiny_model())
        assert obs.metrics.counter("ilp.status.error") == 1
        assert obs.metrics.counter("ilp.solves") == 1


# ---------------------------------------------------------------- groute


def test_maze_disconnect_fault_degrades_to_pattern_routes(monkeypatch):
    clean = GlobalRouter(fresh_small())
    clean.route_all()
    design = fresh_small()
    disconnected = []

    def no_path(graph, field, sources, targets, *args, **kwargs):
        """``maze_route``'s two early returns, else "disconnected"."""
        if not sources or not targets:
            return None
        if sources & targets:
            return []
        disconnected.append(targets)
        return None

    monkeypatch.setattr(groute_router, "maze_route", no_path)
    with observe() as obs:
        router = GlobalRouter(design)
        router.route_all()
        assert obs.metrics.counter("groute.maze_fallbacks") == 273
    assert len(disconnected) == 273
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


def test_update_step_exception_rolls_back(routed, monkeypatch):
    """The update step dies between moving cells and rerouting their
    nets -- moved cells, stale routes -- and the transaction restores
    the iteration's start."""
    design, router = routed
    before_pos = {n: (c.x, c.y) for n, c in design.cells.items()}
    before_wl = router.total_wirelength_dbu()
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    monkeypatch.setattr(GlobalRouter, "reroute_nets", raise_injected)
    stats = framework.run_iteration(0)
    assert stats.rolled_back
    assert stats.rollback_reasons == ["Injected: injected at a recovery boundary"]
    assert router.total_wirelength_dbu() == before_wl
    assert stats.num_moved == 0
    assert {n: (c.x, c.y) for n, c in design.cells.items()} == before_pos
    assert router.accounting_errors() == []
    assert check_legality(design).is_legal


def test_worst_selection_is_contained_by_guard(routed, monkeypatch):
    design, router = routed
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    pre_cost = router.total_route_cost()
    selections = []

    def select_worst(design, candidates):
        """The most expensive candidate of every cell: a deterministically
        bad move set the iteration guard must catch."""
        selections.append(candidates)
        return {
            cell_name: max(options, key=lambda c: min(c.route_cost, 1e9))
            for cell_name, options in candidates.items()
        }

    monkeypatch.setattr(crp_module, "select_moves", select_worst)
    framework.run_iteration(0)
    assert len(selections) == 1
    post_cost = router.total_route_cost()
    assert post_cost <= pre_cost * (1.0 + COST_TOLERANCE) + 1e-9
    assert check_legality(design).is_legal
    assert router.accounting_errors() == []


# ------------------------------------------------------------------ flow


def test_flow_stage_failure_is_isolated(monkeypatch):
    design = fresh_small()
    monkeypatch.setattr(DetailedRouter, "route_all", raise_injected)
    result = run_flow(design, mode="baseline")
    assert result.failed
    assert result.failure is not None
    assert result.failure.stage == "DR"
    assert result.failure.error_type == "Injected"
    assert result.failure.traceback
    assert "GR" in result.runtime
    assert "FAILED" in result.summary()
    assert result.metrics["counters"]["flow.stage_failures"] == 1


def test_flow_crp_stage_isolated(monkeypatch):
    design = fresh_small()
    monkeypatch.setattr(CrpFramework, "run", raise_injected)
    result = run_flow(design, mode="crp", skip_detailed=True)
    assert result.failed
    assert result.failure.stage == "CRP"


def test_flow_baseline_stage_isolated(monkeypatch):
    monkeypatch.setattr(FontanaBaseline, "run", raise_injected)
    result = run_flow(fresh_small(), mode="fontana", skip_detailed=True)
    assert result.failed
    assert result.failure.stage == "BASELINE"
    assert result.fontana is None


@pytest.mark.parametrize("was_enabled", [True, False])
def test_run_flow_pauses_gc_and_leaves_it_as_found(was_enabled, monkeypatch):
    """Every way out of ``run_flow`` — success, a failed stage, an
    argument error before any stage — restores the collector to the
    state it was called in; inside, it is off."""
    inside = []

    def probe(*args):  # the GR stage's entry, inside the flow
        inside.append(gc.isenabled())
        raise Injected("GR died")

    def failed_stage():
        with monkeypatch.context() as patched:
            patched.setattr(GlobalRouter, "route_all", probe)
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


def test_flow_survives_injected_solver_failure_and_bad_iteration(monkeypatch):
    """A solver error plus one forced-bad CR&P iteration must not sink
    the flow."""
    design = fresh_small()
    broken = break_solves(monkeypatch, SolveStatus.ERROR)
    with use_faults(FaultPlan().force("crp.invariants", "forced-violation")):
        result = run_flow(design, mode="crp", crp_iterations=2,
                          skip_detailed=True)
    assert len(broken) == 1
    assert not result.failed
    counters = result.metrics["counters"]
    assert counters["ilp.status.error"] == 1
    assert counters["guard.rollbacks"] >= 1
    assert result.crp is not None and result.crp.rollbacks >= 1
    assert result.legal
    assert check_legality(design).is_legal


def test_crp_accounting_survives_fault_storm(routed, monkeypatch):
    design, router = routed
    broken = break_solves(monkeypatch, SolveStatus.ERROR, SolveStatus.ERROR)
    framework = CrpFramework(design, router, CrpConfig(seed=1))
    with use_faults(FaultPlan().force("crp.invariants", "forced-violation")):
        framework.run(2)
    assert len(broken) == 2
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


def test_cli_run_exits_nonzero_on_stage_failure(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(GlobalRouter, "route_all", raise_injected)
    rc = main(["run", "-b", "ispd18_test1", "-m", "baseline",
               "--skip-detailed"])
    assert rc != 0
    assert "FAILED" in capsys.readouterr().out

