"""Metrics registry: counters, gauges, histograms.

Counters accumulate (``groute.ripup_nets``), gauges keep the last value
(``flow.gr_overflow``), histograms keep exact count/sum/min/max plus a
bounded reservoir for p50/p95 (``droute.astar_expansions``,
``ilp.solve_ms``).  Names follow the same ``<layer>.<event>`` convention
as spans.

The registry is the only place a count lives: code counts an event
where it happens (``get_metrics().count(...)``), or sums in a local
and records the total once before the function returns.  No object
keeps a tally between calls, so there is nothing to publish, flush or
reset, and no count is lost when a caller forgets to.

Like the tracer, the default is a :class:`NoopMetrics` whose mutators
are empty methods, so counting costs ~nothing when observability is
off.
"""

from __future__ import annotations

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
    """Mutable metric store."""

    recording = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------- mutators

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram()
        hist.add(value)

    # -------------------------------------------------------------- queries

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Immutable JSON-able view: counters, gauges, histogram stats."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.snapshot() for name, hist in self._histograms.items()
            },
        }


class NoopMetrics(MetricsRegistry):
    """Discards everything; the default."""

    recording = False

    def __init__(self) -> None:  # no state
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_METRICS = NoopMetrics()
