"""A forced invariant violation at the ``crp.invariants`` site.

:func:`repro.guard.transaction.iteration_violations` asks
:func:`fault_point` for that site; with no plan installed that is one
module-global read.  A :class:`FaultPlan` installed by :func:`use_faults`
arms the site once: the next call returns the forced value, which the
check reports as a violation, so the iteration rolls back.

Tests reach the other recovery paths (a failing solve, a failed maze
search, an exception in a stage or in the update step) by
monkeypatching the boundary they cross; see README "Testing the
recovery paths".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class FaultPlan:
    """Forced values, one trigger per armed site."""

    def __init__(self) -> None:
        self._forced: dict[str, object] = {}

    def force(self, site: str, value: object) -> "FaultPlan":
        """Arm ``site`` to hand ``value`` back on its next call."""
        self._forced[site] = value
        return self


_active_plan: FaultPlan | None = None


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[None]:
    """Install ``plan`` for the scope of the ``with`` block."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield
    finally:
        _active_plan = previous


def fault_point(site: str) -> object | None:
    """The forced value armed at ``site``, once; otherwise ``None``."""
    plan = _active_plan
    if plan is None:
        return None
    return plan._forced.pop(site, None)
