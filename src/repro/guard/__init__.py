"""``repro.guard`` — fault-tolerant execution for the whole flow.

Two pillars, wired through ``core`` and ``flow``:

* **Transactions** (:mod:`repro.guard.transaction`): every CR&P
  iteration snapshots cell positions + dirty-net routes, verifies
  legality / demand-accounting / cost-monotonicity invariants, and
  rolls back on violation, counting ``guard.rollbacks``.
* **A forced violation** (:mod:`repro.guard.faults`): a
  :class:`FaultPlan` armed at ``crp.invariants`` makes the next
  iteration check fail, so a flow can be made to roll back on demand.
  Tests reach the other recovery paths by monkeypatching the boundary
  they cross.

Beside them, :func:`gc_paused` (:mod:`repro.guard.gcpause`) keeps the
cyclic collector off for a flow or a detailed-routing call and restores
it on every exit path.

Stage-level isolation lives in ``repro.flow.pipeline``: a dead stage
becomes a :class:`FailureReport` on the ``FlowResult`` instead of a
crash, and the CLI exits non-zero.
"""

from repro.guard.report import FailureReport
from repro.guard.gcpause import gc_paused
from repro.guard.faults import FaultPlan, fault_point, use_faults
from repro.guard.transaction import (
    IterationTransaction,
    iteration_violations,
)

__all__ = [
    "FailureReport",
    "gc_paused",
    "FaultPlan",
    "fault_point",
    "use_faults",
    "IterationTransaction",
    "iteration_violations",
]
