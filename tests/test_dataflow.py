"""Tests for ``repro.analyze.dataflow``: taint, coverage, U001.

Every fixture is a small on-disk project under ``tmp_path`` so the
interprocedural machinery (module resolution, call graph, summary
fixpoint) is exercised for real.  Each new rule has a positive AND a
negative fixture, and the taint fixtures all cross at least one call
boundary before reaching their sink.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analyze import Severity, run_source_analysis
from repro.analyze.dataflow import (
    DataflowConfig,
    Project,
    build_call_index,
    run_dataflow,
)
from repro.analyze.dataflow.summaries import Taint
from repro.analyze.linter import iter_python_files


def write_project(tmp_path, files: dict[str, str]):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def analyze(tmp_path, files: dict[str, str], **config_kwargs):
    write_project(tmp_path, files)
    config = DataflowConfig(**config_kwargs) if config_kwargs else None
    return run_dataflow([tmp_path], config, relative_to=tmp_path)


def rules_fired(result):
    return {f.rule for f in result.findings}


# ------------------------------------------------- REPRO-T001 (rng)


class TestRngTaint:
    FILES = {
        "proj/__init__.py": "",
        "proj/pick.py": """
            import random


            def jitter():
                return random.random()
            """,
        "proj/place.py": """
            from proj.pick import jitter


            def place(design, name):
                x = jitter()
                design.move_cell(name, x, 0)
            """,
    }

    def test_rng_flows_across_call_into_commit_sink(self, tmp_path):
        result = analyze(tmp_path, self.FILES)
        assert "REPRO-T001" in rules_fired(result)
        (finding,) = [f for f in result.findings if f.rule == "REPRO-T001"]
        # anchored at the *source* (where the fix or suppression goes)
        assert finding.path == "proj/pick.py"
        assert "commit" in finding.message
        assert finding.severity is Severity.ERROR

    def test_seeded_rng_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["proj/pick.py"] = """
            import random


            def jitter(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        files["proj/place.py"] = """
            from proj.pick import jitter


            def place(design, name, seed):
                x = jitter(seed)
                design.move_cell(name, x, 0)
            """
        result = analyze(tmp_path, files)
        assert "REPRO-T001" not in rules_fired(result)

    def test_noqa_at_source_line_suppresses(self, tmp_path):
        files = dict(self.FILES)
        files["proj/pick.py"] = """
            import random


            def jitter():
                return random.random()  # repro: noqa:REPRO-T001 — test only
            """
        result = analyze(tmp_path, files)
        assert "REPRO-T001" not in rules_fired(result)
        assert result.suppressed == 1
        used = result.used_suppressions["proj/pick.py"]
        assert any(rule == "REPRO-T001" for _, rule in used)


# ------------------------------------------- REPRO-T002 (set order)


class TestSetOrderTaint:
    def test_set_order_escapes_helper_into_commit_loop(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/work.py": """
                def dirty_list(nets):
                    pending = set(nets)
                    return list(pending)
                """,
            "proj/commit.py": """
                from proj.work import dirty_list


                def commit(router, nets):
                    for name in dirty_list(nets):
                        router.apply_route(name)
                """,
        })
        assert "REPRO-T002" in rules_fired(result)
        # both the arg-flow and the loop-order hazard anchor at the source
        fired = [f for f in result.findings if f.rule == "REPRO-T002"]
        assert fired
        assert {f.path for f in fired} == {"proj/work.py"}

    def test_sorted_helper_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/work.py": """
                def dirty_list(nets):
                    pending = set(nets)
                    return sorted(pending)
                """,
            "proj/commit.py": """
                from proj.work import dirty_list


                def commit(router, nets):
                    for name in dirty_list(nets):
                        router.apply_route(name)
                """,
        })
        assert "REPRO-T002" not in rules_fired(result)


# --------------------------------------- REPRO-T003 (filesystem order)


class TestFsOrderTaint:
    def test_listing_flows_across_call_into_digest(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/scan.py": """
                import os


                def names(root):
                    return os.listdir(root)
                """,
            "proj/digest.py": """
                from hashlib import sha256

                from proj.scan import names


                def state_digest(root):
                    return sha256(repr(names(root)).encode())
                """,
        })
        assert "REPRO-T003" in rules_fired(result)
        (finding,) = [f for f in result.findings if f.rule == "REPRO-T003"]
        assert finding.path == "proj/scan.py"
        assert "digest" in finding.message

    def test_sorted_listing_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/scan.py": """
                import os


                def names(root):
                    return sorted(os.listdir(root))
                """,
            "proj/digest.py": """
                from hashlib import sha256

                from proj.scan import names


                def state_digest(root):
                    return sha256(repr(names(root)).encode())
                """,
        })
        assert "REPRO-T003" not in rules_fired(result)


# ------------------------------------------- REPRO-T004 (wall clock)


class TestWallClockTaint:
    def test_wall_clock_reading_reaches_checkpoint(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/clock.py": """
                import time


                def stamp():
                    return time.time()
                """,
            "proj/save.py": """
                from proj.clock import stamp


                def snapshot(store, state):
                    store.save_checkpoint(state, stamp())
                """,
        })
        assert "REPRO-T004" in rules_fired(result)
        (finding,) = [f for f in result.findings if f.rule == "REPRO-T004"]
        assert finding.path == "proj/clock.py"

    def test_monotonic_clock_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/clock.py": """
                import time


                def stamp():
                    return time.perf_counter()
                """,
            "proj/save.py": """
                from proj.clock import stamp


                def snapshot(store, state):
                    store.save_checkpoint(state, stamp())
                """,
        })
        assert "REPRO-T004" not in rules_fired(result)


# --------------------------------------- REPRO-G004 (dead handlers)


class TestDeadGuardHandlers:
    def test_handler_over_quiet_body_fires(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/run.py": """
                from repro.guard import DeadlineExceeded


                def quiet():
                    return 1


                def run():
                    try:
                        return quiet()
                    except DeadlineExceeded:
                        return None
                """,
        })
        fired = [f for f in result.findings if f.rule == "REPRO-G004"]
        assert fired, rules_fired(result)
        assert "DeadlineExceeded" in fired[0].message

    def test_transitive_raiser_is_live(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/run.py": """
                from repro.guard import DeadlineExceeded, check_deadline


                def step():
                    check_deadline("proj.step")
                    return 1


                def middle():
                    return step()


                def run():
                    try:
                        return middle()
                    except DeadlineExceeded:
                        return None
                """,
        })
        assert "REPRO-G004" not in rules_fired(result)

    def test_opaque_call_gets_benefit_of_the_doubt(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/run.py": """
                import solver

                from repro.guard import DeadlineExceeded


                def run():
                    try:
                        return solver.spin()
                    except DeadlineExceeded:
                        return None
                """,
        })
        assert "REPRO-G004" not in rules_fired(result)


# ------------------------------------ REPRO-G005 (deadline coverage)


class TestDeadlineCoverage:
    def test_unbounded_loop_reachable_from_run_flow_fires(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/flow.py": """
                def run_flow(design):
                    return spin(design)


                def spin(design):
                    while True:
                        design.step()
                """,
        })
        fired = [f for f in result.findings if f.rule == "REPRO-G005"]
        assert fired, rules_fired(result)
        assert fired[0].path == "proj/flow.py"
        assert "spin" in fired[0].message

    def test_tick_one_call_down_covers_the_loop(self, tmp_path):
        # the whole point of G005 over G001: an interprocedural tick
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/flow.py": """
                from repro.guard import check_deadline


                def run_flow(design):
                    return spin(design)


                def tick_and_step(design):
                    check_deadline("proj.spin")
                    design.step()


                def spin(design):
                    while True:
                        tick_and_step(design)
                """,
        })
        assert "REPRO-G005" not in rules_fired(result)

    def test_unreachable_loop_is_ignored(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/tools.py": """
                def repl():
                    while True:
                        input()
                """,
        })
        assert "REPRO-G005" not in rules_fired(result)

    def test_bounded_loop_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/flow.py": """
                def run_flow(design):
                    return spin(design, 10)


                def spin(design, n):
                    i = 0
                    while i < n:
                        design.step()
                        i += 1
                """,
        })
        assert "REPRO-G005" not in rules_fired(result)


# ----------------------------------------------- summaries & engine


class TestSummaries:
    def test_summary_records_param_and_source_flow(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/mix.py": """
                import random


                def mix(base):
                    return base + random.random()
                """,
        })
        summary = result.summaries["proj.mix.mix"]
        assert 0 in summary.param_to_return
        assert any(
            isinstance(label, Taint) and label.kind == "rng"
            for label in summary.return_taint
        )

    def test_stats_are_deterministic_across_runs(self, tmp_path):
        files = dict(TestRngTaint.FILES)
        first = analyze(tmp_path, files)
        second = run_dataflow([tmp_path], relative_to=tmp_path)
        assert first.stats == second.stats
        assert first.stats["modules"] == 3
        assert first.stats["resolved_edges"] >= 1

    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        result = analyze(tmp_path, {
            "proj/__init__.py": "",
            "proj/bad.py": "def broken(:\n",
            "proj/good.py": "x = 1\n",
        })
        assert result.parse_errors
        assert result.parse_errors[0][0] == "proj/bad.py"


class TestProjectResolution:
    def test_typed_attribute_chain_resolves(self, tmp_path):
        write_project(tmp_path, {
            "proj/__init__.py": "",
            "proj/router.py": """
                class Router:
                    def route_all(self):
                        return 1
                """,
            "proj/flow.py": """
                from proj.router import Router


                def run_flow(design):
                    router = Router()
                    return router.route_all()
                """,
        })
        project = Project.load(
            iter_python_files([tmp_path]), relative_to=tmp_path
        )
        index = build_call_index(project)
        callees = {
            site.callee
            for site in index.calls.get("proj.flow.run_flow", ())
        }
        assert "proj.router.Router.route_all" in callees


# ----------------------------------------- the repo's own source tree


class TestRepoIsClean:
    def test_src_has_no_dataflow_errors(self):
        # The acceptance bar: the interprocedural passes run clean on
        # the repo itself (real hazards get fixed, not accumulated).
        result = run_dataflow(["src"], relative_to=".")
        errors = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
        assert errors == []

    def test_unified_analysis_is_clean_and_fast(self):
        analysis = run_source_analysis(["src"], relative_to=".")
        assert analysis.ok
        assert analysis.findings == []
        assert analysis.dataflow_stats["modules"] > 100
