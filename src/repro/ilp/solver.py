"""Backend dispatch for ILP solves, instrumented with ``repro.obs``.

Every solve runs inside an ``ilp.solve`` span and records the
``ilp.solves`` counter plus ``ilp.solve_ms`` / ``ilp.variables``
histograms, so profiles show how much of a CR&P stage (selection ILP,
window-legalizer ILPs inside GCP) is solver time.  A solve that raises
still counts — as ``ilp.status.error`` — so profiles never undercount
failed solves.

``backend="auto"`` (and its alias ``"ladder"``) routes through the
:mod:`repro.guard.ladder` fallback ladder: scipy -> branch-and-bound ->
exhaustive -> greedy, advancing on backend exceptions, infeasible/error
verdicts, or deadline expiry.  Named backends dispatch directly and
re-raise their failures.  ``budget_s`` opens a per-solve deadline scope
around whichever path runs.

Each backend dispatch passes through a ``fault_point`` site
(``ilp.scipy`` etc.), so tests can force exceptions or statuses there.
"""

from __future__ import annotations

import time

from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution, SolveStatus
from repro.obs import get_metrics, get_tracer

_STATUS_BY_VALUE = {status.value: status for status in SolveStatus}

#: every value :func:`solve` accepts as ``backend``
BACKENDS = ("auto", "ladder", "scipy", "bnb", "exhaustive", "greedy")


def solve(
    model: IlpModel, backend: str = "auto", budget_s: float | None = None
) -> Solution:
    """Solve ``model``.

    ``backend`` is one of ``auto``/``ladder`` (the guard fallback
    ladder, HiGHS first), ``scipy``, ``bnb``, ``exhaustive``, or
    ``greedy``.  ``budget_s`` bounds this solve's wall clock.
    """
    from repro.guard.deadline import deadline_scope
    from repro.guard.ladder import run_ladder

    metrics = get_metrics()
    with get_tracer().span(
        "ilp.solve", backend=backend, variables=model.num_variables
    ):
        t0 = time.perf_counter()
        try:
            with deadline_scope(budget_s, name="ilp.solve"):
                if backend in ("auto", "ladder"):
                    solution = run_ladder(model, _dispatch)
                else:
                    solution = _dispatch(model, backend)
        except Exception:
            metrics.count("ilp.solves")
            metrics.count("ilp.status.error")
            raise
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
    metrics.count("ilp.solves")
    metrics.count(f"ilp.status.{solution.status.value}")
    metrics.observe("ilp.solve_ms", elapsed_ms)
    metrics.observe("ilp.variables", model.num_variables)
    return solution


def _forced_status(site: str, backend: str) -> Solution | None:
    """Fault-injection hook: a forced status name becomes that Solution."""
    from repro.guard.faults import fault_point

    forced = fault_point(site)
    if forced is None:
        return None
    status = _STATUS_BY_VALUE.get(str(forced))
    if status is None:
        raise ValueError(f"fault site {site}: unknown forced status {forced!r}")
    return Solution(status=status, backend=backend)


def _dispatch(model: IlpModel, backend: str) -> Solution:
    if backend == "scipy":
        forced = _forced_status("ilp.scipy", "scipy")
        if forced is not None:
            return forced
        from repro.ilp.scipy_backend import solve_scipy

        return solve_scipy(model)
    if backend == "bnb":
        forced = _forced_status("ilp.bnb", "bnb")
        if forced is not None:
            return forced
        from repro.ilp.bnb import solve_bnb

        return solve_bnb(model)
    if backend == "exhaustive":
        forced = _forced_status("ilp.exhaustive", "exhaustive")
        if forced is not None:
            return forced
        from repro.ilp.exhaustive import solve_exhaustive

        return solve_exhaustive(model)
    if backend == "greedy":
        forced = _forced_status("ilp.greedy", "greedy")
        if forced is not None:
            return forced
        from repro.ilp.greedy import solve_greedy

        return solve_greedy(model)
    raise ValueError(f"unknown ILP backend {backend!r}")
