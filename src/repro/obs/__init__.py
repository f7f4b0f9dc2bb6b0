"""``repro.obs`` — tracing and metrics for the whole flow.

Zero-dependency observability with three pillars:

* **Spans** (:mod:`repro.obs.tracer`): hierarchical wall+CPU timing via
  ``tracer.span("flow.GR")`` context managers.  The span tree is the one
  record of a flow's time: ``FlowResult.runtime`` and the Fig. 3
  breakdown are read off it.
* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges and p50/p95
  histograms (``groute.maze_fallbacks``, ``ilp.solve_ms``).
* **Exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.render`): the
  JSON trace file of ``crp run --trace-out`` and the human tree and
  metrics tables of ``crp run --profile``.

One (tracer, metrics) pair is ambient at a time (:mod:`repro.obs.session`);
the default is the no-op pair, so instrumentation is ~free when off, and
``observe()`` installs a recording one.

Span and metric names follow ``<layer>.<event>`` — see README.md
("Observability") for the convention.
"""

from repro.obs.spans import Span
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Tracer
from repro.obs.metrics import NOOP_METRICS, MetricsRegistry, NoopMetrics
from repro.obs.session import (
    Observation,
    ensure_observation,
    get_metrics,
    get_tracer,
    observe,
)
from repro.obs.export import (
    load_trace_document,
    span_from_dict,
    span_to_dict,
    trace_document,
    write_trace,
)
from repro.obs.render import render_metrics, render_tree

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "get_tracer",
    "MetricsRegistry",
    "NoopMetrics",
    "NOOP_METRICS",
    "get_metrics",
    "Observation",
    "observe",
    "ensure_observation",
    "span_to_dict",
    "span_from_dict",
    "trace_document",
    "load_trace_document",
    "write_trace",
    "render_tree",
    "render_metrics",
]
