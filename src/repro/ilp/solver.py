"""``solve``: one exact HiGHS solve per model, instrumented with ``repro.obs``.

Every solve runs inside an ``ilp.solve`` span and records the
``ilp.solves`` counter plus ``ilp.solve_ms`` / ``ilp.variables``
histograms, so profiles show how much of a CR&P stage (selection ILP,
window-legalizer ILPs inside GCP) is solver time.  A solve that raises
still counts — as ``ilp.status.error`` — so profiles never undercount
failed solves.

Nothing here retries or degrades.  A status other than OPTIMAL reaches
the caller, whose ``not solution.ok`` branch keeps every cell where it
is; an exception propagates to ``run_flow``'s stage isolation, which
turns it into a ``FailureReport``.
"""

from __future__ import annotations

import time

from repro.ilp import scipy_backend
from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution
from repro.obs import get_metrics, get_tracer


def solve(model: IlpModel) -> Solution:
    """Solve ``model`` exactly with HiGHS."""
    metrics = get_metrics()
    with get_tracer().span("ilp.solve", variables=model.num_variables):
        t0 = time.perf_counter()
        try:
            solution = scipy_backend.solve_scipy(model)
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
