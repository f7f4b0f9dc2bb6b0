"""``repro.guard`` — fault-tolerant execution for the whole flow.

Four pillars, wired through ``ilp``/``groute``/``core``/``flow``/``cli``:

* **Deadlines** (:mod:`repro.guard.deadline`): nested wall-clock budgets
  (per flow, per stage, per ILP solve) checked cooperatively at loop
  checkpoints; expiry raises :class:`DeadlineExceeded` and counts
  ``guard.deadline_hits``.
* **Fallback ladder** (:mod:`repro.guard.ladder`): ``ilp.solve`` retries
  scipy -> branch-and-bound -> exhaustive -> greedy on backend
  exceptions, infeasible/error verdicts, or deadline expiry, counting
  ``guard.fallbacks``.
* **Transactions** (:mod:`repro.guard.transaction`): every CR&P
  iteration snapshots cell positions + dirty-net routes, verifies
  legality / demand-accounting / cost-monotonicity invariants, and
  rolls back on violation, counting ``guard.rollbacks``.
* **Fault injection** (:mod:`repro.guard.faults`): deterministic
  exceptions, forced statuses, and delays at named sites, so the test
  suite proves every recovery path actually runs.

Beside them, :func:`gc_paused` (:mod:`repro.guard.gcpause`) keeps the
cyclic collector off for a flow or a detailed-routing call and restores
it on every exit path.

Stage-level isolation lives in ``repro.flow.pipeline``: a dead stage
becomes a :class:`FailureReport` on the ``FlowResult`` instead of a
crash, and the CLI exits non-zero.

Import-order note: submodules are imported leaves-first (report,
deadline, faults before ladder) because instrumented packages like
``repro.ilp`` import the earlier leaves back while ``ladder`` is still
loading.
"""

from repro.guard.report import FailureReport
from repro.guard.deadline import (
    Deadline,
    DeadlineExceeded,
    DeadlineTicker,
    check_deadline,
    current_deadline,
    deadline_scope,
    remaining_budget,
)
from repro.guard.gcpause import gc_paused
from repro.guard.faults import (
    FaultInjected,
    FaultPlan,
    fault_point,
    install_faults,
    use_faults,
)
from repro.guard.ladder import run_ladder
from repro.guard.transaction import (
    GuardPolicy,
    IterationTransaction,
    iteration_violations,
)

__all__ = [
    "FailureReport",
    "Deadline",
    "DeadlineExceeded",
    "DeadlineTicker",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "remaining_budget",
    "gc_paused",
    "FaultInjected",
    "FaultPlan",
    "fault_point",
    "install_faults",
    "use_faults",
    "run_ladder",
    "GuardPolicy",
    "IterationTransaction",
    "iteration_violations",
]
