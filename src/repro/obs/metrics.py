"""Thread-safe metrics registry: counters, gauges, histograms.

Counters accumulate (``groute.ripup_nets``), gauges keep the last value
(``flow.gr_overflow``), histograms keep exact count/sum/min/max plus a
bounded reservoir for p50/p95 (``droute.astar_expansions``,
``ilp.solve_ms``).  Names follow the same ``<layer>.<event>`` convention
as spans.

Like the tracer, the process-wide default is a :class:`NoopMetrics`
whose mutators are empty methods, so hot paths pay ~nothing when
observability is off.  Instrumented code should aggregate locally and
record once per call (e.g. count A* expansions in a local and
``observe()`` the total), never inside inner loops.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

#: histogram reservoir bound; count/sum/min/max stay exact beyond it
RESERVOIR_SIZE = 4096


class _Histogram:
    __slots__ = ("count", "total", "min", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: list[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.values) < RESERVOIR_SIZE:
            self.values.append(value)
        else:
            # Deterministic decimating reservoir: overwrite round-robin.
            self.values[self.count % RESERVOIR_SIZE] = value

    def percentile(self, q: float) -> float:
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
        }


class MetricsRegistry:
    """Mutable metric store; every mutator takes the registry lock."""

    recording = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------- mutators

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.add(value)

    def observe_many(self, name: str, values: list[float]) -> None:
        """Record a batch of samples into histogram ``name``.

        One lock acquisition and one series lookup for the whole batch —
        hot loops accumulate locally and flush here instead of paying a
        registry round-trip per sample (see ``droute``'s A* stats).
        """
        if not values:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            for value in values:
                hist.add(value)

    # -------------------------------------------------------------- queries

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Immutable JSON-able view: counters, gauges, histogram stats."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
            }

    def raw(self) -> dict[str, dict[str, object]]:
        """Raw view: counters, gauges, histogram samples.

        Unlike :meth:`snapshot`, histograms are exported as their raw
        reservoir samples, not summary statistics.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: list(hist.values)
                    for name, hist in self._histograms.items()
                },
            }


class NoopMetrics(MetricsRegistry):
    """Discards everything; the process-wide default."""

    recording = False

    def __init__(self) -> None:  # no lock/state
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observe_many(self, name: str, values: list[float]) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def raw(self) -> dict[str, dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_METRICS = NoopMetrics()
_active_metrics: MetricsRegistry = NOOP_METRICS
_install_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The ambient registry (a shared :data:`NOOP_METRICS` by default)."""
    return _active_metrics


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (or the no-op default); returns the prior one."""
    global _active_metrics
    with _install_lock:
        previous = _active_metrics
        _active_metrics = registry if registry is not None else NOOP_METRICS
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the scope of the ``with`` block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
