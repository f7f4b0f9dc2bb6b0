"""Tests for ``repro.obs``: tracer, metrics, exporters, flow wiring."""

from __future__ import annotations

import ast
import json
import time
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    NOOP_METRICS,
    NOOP_TRACER,
    Span,
    Tracer,
    ensure_observation,
    get_metrics,
    get_tracer,
    observe,
    span_from_dict,
    span_to_dict,
)
from repro.obs.render import render_metrics, render_tree


# ------------------------------------------------------------------ tracer


def test_nested_span_timing_correctness():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner.a") as a:
            time.sleep(0.02)
        with tracer.span("inner.b") as b:
            time.sleep(0.01)
    assert tracer.roots == [outer]
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    assert a.wall_s >= 0.02
    assert b.wall_s >= 0.01
    # The parent covers its children (plus its own overhead).
    assert outer.wall_s >= a.wall_s + b.wall_s
    assert outer.self_wall_s == pytest.approx(
        outer.wall_s - a.wall_s - b.wall_s
    )
    assert outer.find("inner.b") is b
    assert outer.child_walls() == {"inner.a": a.wall_s, "inner.b": b.wall_s}


def test_span_stack_unwinds_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert len(tracer.roots) == 1
    assert tracer.roots[0].children[0].name == "inner"
    with tracer.span("after"):
        pass
    assert [root.name for root in tracer.roots] == ["outer", "after"]


def test_global_default_is_noop():
    assert get_tracer() is NOOP_TRACER
    assert not get_tracer().recording
    assert get_metrics() is NOOP_METRICS
    assert not get_metrics().recording


def test_observe_installs_one_pair_and_restores_the_default():
    with observe() as outer:
        assert (get_tracer(), get_metrics()) == (outer.tracer, outer.metrics)
        with ensure_observation() as reused:
            assert reused is outer
        with observe() as inner:
            assert get_tracer() is inner.tracer is not outer.tracer
        assert get_tracer() is outer.tracer
    with ensure_observation() as private:
        assert private.tracer.recording and private.metrics.recording
        assert get_metrics() is private.metrics
    assert get_tracer() is NOOP_TRACER and get_metrics() is NOOP_METRICS


_THREAD_MODULES = ("threading", "concurrent", "multiprocessing", "_thread")


def test_no_module_imports_threads_or_process_pools():
    """``repro.obs`` and ``repro.guard.faults`` keep one span stack, one
    ambient pair and one fault plan without locks: they rest on the
    program running on one thread, so no module may import the means to
    run another."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(src)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in _THREAD_MODULES
            ]
    assert offenders == []


def test_noop_mode_overhead_is_tiny():
    def instrumented():
        with get_tracer().span("noop.call"):
            return 1

    # Warm up, then time 20k instrumented calls through the no-op
    # tracer; budget 10 microseconds per call (the real cost is well
    # under 2 us — the slack absorbs CI noise).
    for _ in range(100):
        instrumented()
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        instrumented()
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 10e-6, f"no-op span cost {per_call * 1e6:.2f} us/call"


# ----------------------------------------------------------------- metrics


def test_histogram_percentiles():
    registry = MetricsRegistry()
    for v in range(1, 101):
        registry.observe("h", float(v))
    hist = registry.snapshot()["histograms"]["h"]
    assert hist["count"] == 100
    assert hist["mean"] == pytest.approx(50.5)
    assert 45 <= hist["p50"] <= 55
    assert 90 <= hist["p95"] <= 100
    assert hist["max"] == 100.0


def test_histogram_reservoir_keeps_exact_aggregates():
    from repro.obs.metrics import RESERVOIR_SIZE

    registry = MetricsRegistry()
    n = RESERVOIR_SIZE + 500
    for v in range(n):
        registry.observe("h", float(v))
    hist = registry.snapshot()["histograms"]["h"]
    assert hist["count"] == n
    assert hist["sum"] == pytest.approx(sum(range(n)))
    assert hist["max"] == float(n - 1)
    assert len(registry._histograms["h"].values) == RESERVOIR_SIZE


# --------------------------------------------------------------- exporters


def test_json_exporter_round_trip():
    tracer = Tracer()
    with tracer.span("root", design="d1") as root:
        with tracer.span("child.a", k=1):
            pass
        with tracer.span("child.b"):
            with tracer.span("grand"):
                pass
    # Through dicts and an actual JSON string.
    reloaded = span_from_dict(json.loads(json.dumps(span_to_dict(root))))
    for original, copy in zip(root.walk(), reloaded.walk()):
        assert original.name == copy.name
        assert original.meta == copy.meta
        assert copy.wall_s == pytest.approx(original.wall_s)
        assert copy.cpu_s == pytest.approx(original.cpu_s)
        assert [c.name for c in original.children] == [
            c.name for c in copy.children
        ]


def test_render_tree_and_metrics_smoke():
    tracer = Tracer()
    with tracer.span("root") as root:
        for _ in range(3):
            with tracer.span("leaf"):
                pass
    tree = render_tree(root)
    assert "root" in tree and "leaf x3" in tree
    registry = MetricsRegistry()
    registry.count("a.b", 5)
    registry.observe("a.h", 1.0)
    registry.gauge("a.g", 2.0)
    text = render_metrics(registry.snapshot())
    assert "a.b" in text and "a.h" in text and "a.g" in text
    assert render_metrics(NOOP_METRICS.snapshot()) == "(no metrics recorded)"


# ------------------------------------------------------------- flow wiring


def test_run_flow_trace_backs_runtime_dict():
    from repro.flow import run_flow

    from helpers import fresh_small

    result = run_flow(fresh_small(), mode="crp", crp_iterations=1)
    assert result.trace is not None
    assert result.trace.name == "flow.run"
    stage_walls = result.trace.child_walls()
    assert result.runtime["GR"] == stage_walls["flow.GR"]
    assert result.runtime["CRP"] == stage_walls["flow.CRP"]
    assert result.runtime["DR"] == stage_walls["flow.DR"]
    assert list(result.runtime) == ["GR", "CRP", "DR"]
    # CR&P step spans are children of flow.CRP, one tree per iteration;
    # the hand-off overflow repair closes the stage.
    crp_span = result.trace.find("flow.CRP")
    assert [s.name for s in crp_span.children] == ["crp.iteration", "groute.repair"]
    # CR&P left overflow here, and DR was handed none.
    repair = crp_span.children[-1].meta
    unrepaired = result.metrics["gauges"]["flow.gr_overflow_unrepaired"]
    assert unrepaired == repair["overflow_in"] > 0
    assert result.gr_overflow == repair["overflow_out"] == 0
    assert [s.name for s in crp_span.children[0].children] == [
        "crp.label", "crp.GCP", "crp.ECC", "crp.ILP", "crp.UD"
    ]
    # Metrics snapshot rode along on the result.
    assert result.metrics is not None
    assert result.metrics["counters"]["groute.nets_routed"] > 0


def test_run_flow_nests_under_outer_observation():
    from repro.flow import run_flow

    from helpers import fresh_small

    with observe() as obs:
        result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    assert [s.name for s in obs.tracer.roots] == ["flow.run"]
    assert result.trace is obs.tracer.roots[0]
    assert obs.metrics.counter("groute.nets_routed") > 0


def test_flow_summary_without_quality_reports_gr_stats():
    from repro.flow import run_flow

    from helpers import fresh_small

    result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    line = result.summary()
    assert "None" not in line
    assert f"gr_wl={result.gr_wirelength_dbu}" in line
    assert f"gr_vias={result.gr_vias}" in line


def test_runtime_breakdown_pct_rejects_missing_step_spans():
    from repro.flow import FlowResult, runtime_breakdown_pct

    iteration = Span(
        "crp.iteration",
        children=[Span("crp.GCP", wall_s=1.0), Span("crp.ECC", wall_s=1.0)],
    )
    trace = Span(
        "flow.run",
        children=[
            Span("flow.GR", wall_s=1.0),
            Span("flow.CRP", wall_s=2.0, children=[iteration]),
        ],
    )
    result = FlowResult(design="d", mode="crp", trace=trace)
    with pytest.raises(KeyError, match="UD"):
        runtime_breakdown_pct(result)


def test_fig3_shares_come_from_both_iteration_spans():
    from repro.core import CrpConfig
    from repro.flow import run_flow, runtime_breakdown_pct

    from helpers import fresh_small

    result = run_flow(
        fresh_small(), mode="crp", crp_iterations=2, config=CrpConfig(seed=1)
    )
    stage = result.trace.find("flow.CRP").children
    assert [s.name for s in stage] == ["crp.iteration"] * 2 + ["groute.repair"]
    iterations = stage[:2]

    def step(name):
        return sum(it.child_walls()[f"crp.{name}"] for it in iterations)

    seconds = {
        "GR": result.runtime["GR"],
        "GCP": step("GCP"),
        "ECC": step("ECC"),
        "UD": step("UD"),
        "Misc": step("label") + step("ILP"),
        "DR": result.runtime["DR"],
    }
    total = sum(seconds.values())
    expected = {stage: 100.0 * s / total for stage, s in seconds.items()}
    assert runtime_breakdown_pct(result) == pytest.approx(expected)


def test_crp_iteration_spans_need_an_observation():
    """Outside ``run_flow`` a CR&P iteration records its five step spans
    only under ``observe()``; with the no-op default they go nowhere."""
    from repro.core import CrpConfig, CrpFramework
    from repro.groute import GlobalRouter

    from helpers import fresh_small

    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    framework = CrpFramework(design, router, CrpConfig(seed=0))
    framework.run_iteration(0)
    assert NOOP_TRACER.roots == []
    with observe() as obs:
        framework.run_iteration(1)
    (root,) = obs.tracer.roots
    assert root.name == "crp.iteration" and root.meta == {"k": 1}
    assert list(root.child_walls()) == [
        "crp.label", "crp.GCP", "crp.ECC", "crp.ILP", "crp.UD"
    ]


# --------------------------------------------------------------------- CLI


def test_cli_run_trace_out(tmp_path, capsys):
    from repro.cli import main
    from repro.obs import load_trace_document

    trace_path = tmp_path / "trace.json"
    assert main(
        [
            "run", "-b", "ispd18_test1", "-m", "baseline", "--skip-detailed",
            "--profile", "--trace-out", str(trace_path),
        ]
    ) == 0
    printed = capsys.readouterr().out
    assert "flow.run" in printed  # --profile tree
    assert "counters" in printed  # --profile metrics tables
    spans, doc = load_trace_document(trace_path)
    assert doc["design"] == "ispd18_test1"
    assert [s.name for s in spans] == ["flow.run"]
    assert spans[0].find("flow.GR") is not None
