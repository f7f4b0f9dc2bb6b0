"""Exporter: the JSON trace document behind ``crp run --trace-out``.

The document is self-describing (``schema`` key) and round-trips
through :func:`span_to_dict` / :func:`span_from_dict`, so a saved trace
can be reloaded and its span tree compared with another run's.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ckpt.atomic import atomic_write
from repro.obs.spans import Span

SCHEMA = "repro.obs/1"


def span_to_dict(span: Span) -> dict[str, object]:
    """Nested JSON-able dict for one span tree."""
    out: dict[str, object] = {
        "name": span.name,
        "wall_s": span.wall_s,
        "cpu_s": span.cpu_s,
        "start_s": span.start_s,
    }
    if span.meta:
        out["meta"] = dict(span.meta)
    if span.children:
        out["children"] = [span_to_dict(c) for c in span.children]
    return out


def span_from_dict(data: dict[str, object]) -> Span:
    """Inverse of :func:`span_to_dict`."""
    return Span(
        name=str(data["name"]),
        wall_s=float(data.get("wall_s", 0.0)),
        cpu_s=float(data.get("cpu_s", 0.0)),
        start_s=float(data.get("start_s", 0.0)),
        meta=dict(data.get("meta", {})),  # type: ignore[arg-type]
        children=[span_from_dict(c) for c in data.get("children", ())],  # type: ignore[union-attr]
    )


def trace_document(
    spans: list[Span],
    metrics: dict[str, dict[str, object]] | None = None,
    extra: dict[str, object] | None = None,
) -> dict[str, object]:
    """Assemble the full trace-file payload."""
    doc: dict[str, object] = {"schema": SCHEMA}
    if extra:
        doc.update(extra)
    doc["trace"] = [span_to_dict(s) for s in spans]
    if metrics is not None:
        doc["metrics"] = metrics
    return doc


def load_trace_document(path: str | Path) -> tuple[list[Span], dict[str, object]]:
    """Read a trace file back as (root spans, whole document)."""
    doc = json.loads(Path(path).read_text())
    spans = [span_from_dict(d) for d in doc.get("trace", ())]
    return spans, doc


def write_trace(
    path: str | Path,
    spans: list[Span],
    metrics: dict[str, dict[str, object]] | None = None,
    extra: dict[str, object] | None = None,
) -> Path:
    """Write the JSON trace document atomically; returns the path written."""
    path = Path(path)
    atomic_write(path, json.dumps(trace_document(spans, metrics, extra), indent=1))
    return path
