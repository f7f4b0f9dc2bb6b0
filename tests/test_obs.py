"""Tests for ``repro.obs``: tracer, metrics, exporters, flow wiring."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    NOOP_METRICS,
    NOOP_TRACER,
    Span,
    Tracer,
    bench_summary,
    get_metrics,
    get_tracer,
    observe,
    span_from_dict,
    span_to_dict,
    traced,
    use_tracer,
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
    assert outer.total("inner.a") == a.wall_s
    assert outer.find("inner.b") is b
    assert outer.child_walls() == {"inner.a": a.wall_s, "inner.b": b.wall_s}


def test_span_stack_unwinds_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert tracer.current() is None
    assert len(tracer.roots) == 1
    assert tracer.roots[0].children[0].name == "inner"


def test_traced_decorator_uses_ambient_tracer():
    @traced("layer.event")
    def work():
        return 7

    tracer = Tracer()
    with use_tracer(tracer):
        assert work() == 7
    assert work() == 7  # noop ambient afterwards: no new roots
    assert [s.name for s in tracer.roots] == ["layer.event"]


def test_tracer_threads_build_independent_trees():
    tracer = Tracer()
    errors: list[Exception] = []

    def worker(tag: str) -> None:
        try:
            for _ in range(50):
                with tracer.span(f"thread.{tag}"):
                    with tracer.span("thread.child"):
                        pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(str(i),)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(tracer.roots) == 4 * 50
    assert all(len(root.children) == 1 for root in tracer.roots)


def test_global_default_is_noop():
    assert get_tracer() is NOOP_TRACER
    assert not get_tracer().recording
    assert get_metrics() is NOOP_METRICS
    assert not get_metrics().recording


def test_noop_mode_overhead_is_tiny():
    @traced("noop.call")
    def instrumented():
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


def test_metrics_registry_thread_safety():
    registry = MetricsRegistry()
    n_threads, n_ops = 8, 1000

    def worker() -> None:
        for i in range(n_ops):
            registry.count("c.hits")
            registry.observe("h.values", float(i))
            registry.gauge("g.last", float(i))

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = registry.snapshot()
    assert snap["counters"]["c.hits"] == n_threads * n_ops
    hist = snap["histograms"]["h.values"]
    assert hist["count"] == n_threads * n_ops
    assert hist["min"] == 0.0
    assert hist["max"] == float(n_ops - 1)
    assert snap["gauges"]["g.last"] == float(n_ops - 1)


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
    assert len(registry.raw()["histograms"]["h"]) == RESERVOIR_SIZE


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


def test_bench_summary_flattens_and_merges_siblings():
    root = Span(name="root", wall_s=2.0)
    root.children = [
        Span(name="stage", wall_s=0.5),
        Span(name="stage", wall_s=0.25),
    ]
    flat = bench_summary(root)
    assert flat["root"] == pytest.approx(2.0)
    assert flat["root/stage"] == pytest.approx(0.75)


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
    # CR&P step spans are children of flow.CRP, one tree per iteration.
    crp_span = result.trace.find("flow.CRP")
    assert crp_span is not None
    breakdown = result.crp.runtime_breakdown()
    for step in ("label", "GCP", "ECC", "ILP", "UD"):
        assert breakdown[step] == pytest.approx(
            crp_span.total(f"crp.{step}")
        )
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
    from repro.core import CrpResult, IterationStats
    from repro.flow import run_flow, runtime_breakdown_pct

    from helpers import fresh_small

    result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    broken = CrpResult()
    broken.iterations.append(
        IterationStats(iteration=0, runtime={"GCP": 1.0, "ECC": 1.0})
    )
    result.crp = broken
    with pytest.raises(KeyError, match="UD"):
        runtime_breakdown_pct(result)


def test_crp_iteration_records_runtime_without_global_tracing():
    """run_iteration standalone (noop ambient) still fills its runtimes."""
    from repro.core import CrpConfig, CrpFramework
    from repro.groute import GlobalRouter

    from helpers import fresh_small

    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    assert not get_tracer().recording
    stats = CrpFramework(design, router, CrpConfig(seed=0)).run_iteration(0)
    assert set(stats.runtime) == {"label", "GCP", "ECC", "ILP", "UD"}
    assert all(v >= 0.0 for v in stats.runtime.values())


# --------------------------------------------------------------------- CLI


def test_cli_profile_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_obs.json"
    assert main(
        ["profile", "ispd18_test1", "-m", "crp", "-k", "1", "-o", str(out)]
    ) == 0
    printed = capsys.readouterr().out
    assert "flow.run" in printed
    assert "flow.GR" in printed and "flow.CRP" in printed
    assert "counters" in printed

    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.obs/bench-1"
    (entry,) = doc["designs"]
    assert entry["design"] == "ispd18_test1"
    # The exported stage totals agree with the span tree by construction.
    for stage in ("GR", "CRP", "DR"):
        assert entry["runtime_s"][stage] == pytest.approx(
            entry["spans"][f"flow.run/flow.{stage}"], abs=1e-5
        )
    assert set(entry["fig3_breakdown_pct"]) == {
        "GR", "GCP", "ECC", "UD", "Misc", "DR"
    }
    assert sum(entry["fig3_breakdown_pct"].values()) == pytest.approx(
        100.0, abs=0.1
    )
    assert entry["metrics"]["counters"]["ilp.solves"] > 0
    assert entry["trace"]["name"] == "flow.run"


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
    spans, doc = load_trace_document(trace_path)
    assert doc["design"] == "ispd18_test1"
    assert [s.name for s in spans] == ["flow.run"]
    assert spans[0].find("flow.GR") is not None
