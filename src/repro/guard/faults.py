"""Deterministic fault injection at named sites.

Instrumented code calls ``fault_point("<site>")`` at the places the
guard layer must be able to break: the HiGHS solve (``ilp.scipy``),
the maze router (``groute.maze``), flow stages (``flow.GR`` / ``flow.CRP`` /
``flow.BASELINE`` / ``flow.DR``), the CR&P update step
(``crp.update.reroute``), selection (``crp.select``), and the
post-iteration invariant check (``crp.invariants``).

With no plan installed a fault point is one module-global read — safe
to leave in hot paths.  A :class:`FaultPlan` arms sites with one of
two behaviours, each limited to a trigger count:

* ``fail(site)`` — raise :class:`FaultInjected` (or a caller-supplied
  exception),
* ``force(site, value)`` — return ``value`` to the caller, which
  interprets it (e.g. ``"infeasible"`` at an ILP site forces that
  solve status; ``"disconnect"`` at ``groute.maze`` forces a failed
  search).

Every trigger counts ``guard.faults_injected`` and is tallied on the
plan (:meth:`FaultPlan.fired`), so tests can prove a recovery path
actually executed rather than was merely installed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs import get_metrics


class FaultInjected(RuntimeError):
    """The default exception raised by an armed ``fail`` site."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site


@dataclass(slots=True)
class _Fault:
    kind: str  # "fail" | "force"
    times: int  # remaining triggers; -1 means unlimited
    value: object = None  # exception for fail, payload for force

    @property
    def armed(self) -> bool:
        return self.times != 0

    def consume(self) -> None:
        if self.times > 0:
            self.times -= 1


class FaultPlan:
    """An ordered set of faults, armed per site."""

    def __init__(self) -> None:
        self._sites: dict[str, list[_Fault]] = {}
        self._fired: dict[str, int] = {}

    # ------------------------------------------------------------- arming

    def fail(
        self, site: str, exc: BaseException | None = None, times: int = 1
    ) -> "FaultPlan":
        """Arm ``site`` to raise ``exc`` (default :class:`FaultInjected`)."""
        self._add(site, _Fault(kind="fail", times=times, value=exc))
        return self

    def force(self, site: str, value: object, times: int = 1) -> "FaultPlan":
        """Arm ``site`` to hand ``value`` back to the instrumented code."""
        self._add(site, _Fault(kind="force", times=times, value=value))
        return self

    def _add(self, site: str, fault: _Fault) -> None:
        self._sites.setdefault(site, []).append(fault)

    # ----------------------------------------------------------- queries

    def fired(self, site: str | None = None) -> int:
        """Trigger count for ``site`` (or total across all sites)."""
        if site is not None:
            return self._fired.get(site, 0)
        return sum(self._fired.values())

    # ---------------------------------------------------------- firing

    def trigger(self, site: str) -> object | None:
        """Fire the next armed fault at ``site``; called by fault_point."""
        faults = self._sites.get(site)
        fault = next((f for f in faults if f.armed), None) if faults else None
        if fault is None:
            return None
        fault.consume()
        self._fired[site] = self._fired.get(site, 0) + 1
        metrics = get_metrics()
        metrics.count("guard.faults_injected")
        metrics.count(f"guard.fault.{site}")
        if fault.kind == "fail":
            exc = fault.value
            if exc is None:
                exc = FaultInjected(site)
            elif isinstance(exc, type):
                exc = exc(f"injected fault at {site}")
            raise exc  # type: ignore[misc]
        return fault.value


_active_plan: FaultPlan | None = None


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the scope of the ``with`` block."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield plan
    finally:
        _active_plan = previous


def fault_point(site: str) -> object | None:
    """The injection hook: returns a forced value, raises, or no-ops."""
    plan = _active_plan
    if plan is None:
        return None
    return plan.trigger(site)
