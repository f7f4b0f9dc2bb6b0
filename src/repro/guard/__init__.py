"""``repro.guard`` — fault-tolerant execution for the whole flow.

Two pillars, wired through ``ilp``/``groute``/``core``/``flow``:

* **Transactions** (:mod:`repro.guard.transaction`): every CR&P
  iteration snapshots cell positions + dirty-net routes, verifies
  legality / demand-accounting / cost-monotonicity invariants, and
  rolls back on violation, counting ``guard.rollbacks``.
* **Fault injection** (:mod:`repro.guard.faults`): deterministic
  exceptions and forced statuses at named sites, so the test suite
  proves every recovery path actually runs.

Beside them, :func:`gc_paused` (:mod:`repro.guard.gcpause`) keeps the
cyclic collector off for a flow or a detailed-routing call and restores
it on every exit path.

Stage-level isolation lives in ``repro.flow.pipeline``: a dead stage
becomes a :class:`FailureReport` on the ``FlowResult`` instead of a
crash, and the CLI exits non-zero.
"""

from repro.guard.report import FailureReport
from repro.guard.gcpause import gc_paused
from repro.guard.faults import (
    FaultInjected,
    FaultPlan,
    fault_point,
    use_faults,
)
from repro.guard.transaction import (
    IterationTransaction,
    iteration_violations,
)

__all__ = [
    "FailureReport",
    "gc_paused",
    "FaultInjected",
    "FaultPlan",
    "fault_point",
    "use_faults",
    "IterationTransaction",
    "iteration_violations",
]
