"""Observation sessions: the one (tracer, metrics) pair that is active.

The program runs on one thread, so one module-level :class:`Observation`
is ambient at a time.  The default is the no-op pair; ``observe()`` is
the only way to install another::

    from repro.obs import observe

    with observe() as obs:
        result = run_flow(design, mode="crp")
    print(obs.tracer.roots[0].name)        # "flow.run"
    print(obs.metrics.snapshot()["counters"])

``ensure_observation()`` is the driver-facing variant used by
``run_flow``: it reuses the ambient pair when it records (so flows nest
under a caller's ``observe()``), otherwise it opens its own, so every
``FlowResult`` carries a trace and a metrics snapshot even with
observability off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import NOOP_METRICS, MetricsRegistry
from repro.obs.tracer import NOOP_TRACER, Tracer


@dataclass(slots=True, frozen=True)
class Observation:
    """A (tracer, metrics) pair; both record or neither does."""

    tracer: Tracer
    metrics: MetricsRegistry


_active = Observation(tracer=NOOP_TRACER, metrics=NOOP_METRICS)


def get_tracer() -> Tracer:
    """The ambient tracer (the shared :data:`NOOP_TRACER` by default)."""
    return _active.tracer


def get_metrics() -> MetricsRegistry:
    """The ambient registry (the shared :data:`NOOP_METRICS` by default)."""
    return _active.metrics


@contextmanager
def observe() -> Iterator[Observation]:
    """Install a fresh recording pair for the scope of the ``with`` block."""
    global _active
    previous = _active
    _active = Observation(tracer=Tracer(), metrics=MetricsRegistry())
    try:
        yield _active
    finally:
        _active = previous


@contextmanager
def ensure_observation() -> Iterator[Observation]:
    """Yield a *recording* pair: the ambient one if it records, else a
    fresh one for the scope.

    With a reused ambient pair the metrics registry is shared: snapshots
    taken at flow end are cumulative across every flow run inside the
    same ``observe()`` block.
    """
    if _active.tracer.recording:
        yield _active
        return
    with observe() as obs:
        yield obs
