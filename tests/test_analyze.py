"""Tests for ``repro.analyze``: lint rules, suppression, invariants."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analyze import (
    Finding,
    LintConfig,
    RULES,
    Severity,
    check_accounting,
    check_connectivity,
    check_flow_state,
    check_guide_coverage,
    check_model,
    check_placement,
    finding_from_dict,
    finding_to_dict,
    lint_paths,
    lint_source,
    load_report,
    render_findings,
    report_document,
    rule_table,
    suppressions,
    write_report,
)
from repro.analyze.__main__ import main as analyze_main
from helpers import fresh_small
from oracles.groute import route_nodes
from repro.groute import GlobalRouter
from repro.ilp import IlpModel


def lint_snippet(code: str, path: str = "src/repro/mod.py", **config):
    findings, _ = lint_source(
        textwrap.dedent(code), path, LintConfig(**config)
    )
    return findings


def rules_fired(code: str, path: str = "src/repro/mod.py", **config):
    return {f.rule for f in lint_snippet(code, path, **config)}


# ------------------------------------------------------------ rule: D001


class TestGlobalRandom:
    def test_fires_on_global_rng_call(self):
        assert "REPRO-D001" in rules_fired(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )

    def test_fires_on_unseeded_random_and_from_import(self):
        assert "REPRO-D001" in rules_fired(
            """
            import random
            rng = random.Random()
            """
        )
        assert "REPRO-D001" in rules_fired(
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """
        )

    def test_quiet_on_seeded_rng(self):
        assert "REPRO-D001" not in rules_fired(
            """
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
            """
        )


# ------------------------------------------------------------ rule: D002


class TestSetIteration:
    def test_fires_on_set_typed_local(self):
        assert "REPRO-D002" in rules_fired(
            """
            def order(nets):
                dirty: set[str] = set(nets)
                for name in dirty:
                    route(name)
            """
        )

    def test_fires_on_direct_set_expression(self):
        assert "REPRO-D002" in rules_fired(
            """
            def order(a, b):
                for name in set(a) | set(b):
                    route(name)
            """
        )

    def test_escalates_to_error_on_decision_paths(self):
        code = """
        def order(nets):
            dirty = set(nets)
            for name in dirty:
                route(name)
        """
        (plain,) = lint_snippet(code, "src/repro/viz/mod.py")
        assert plain.severity is Severity.WARNING
        (hot,) = lint_snippet(code, "src/repro/groute/mod.py")
        assert hot.severity is Severity.ERROR

    def test_quiet_on_sorted_and_order_free_consumers(self):
        assert "REPRO-D002" not in rules_fired(
            """
            def order(nets):
                dirty = set(nets)
                for name in sorted(dirty):
                    route(name)
                total = sum(cost(n) for n in dirty)
                return sorted(n for n in dirty if n), total
            """
        )

    def test_nested_function_scopes_are_independent(self):
        assert "REPRO-D002" not in rules_fired(
            """
            def outer():
                items = set((1, 2))

                def inner(items):
                    for x in items:  # a parameter here, not outer's set
                        use(x)
                return inner
            """
        )


# ------------------------------------------------------------ rule: D003


class TestFloatEquality:
    def test_fires_on_float_literal_compare(self):
        assert "REPRO-D003" in rules_fired("ok = displacement == 0.0\n")
        assert "REPRO-D003" in rules_fired("bad = cost != 1.5\n")

    def test_quiet_on_int_literals_and_inequalities(self):
        assert "REPRO-D003" not in rules_fired(
            """
            exact = count == 0
            below = cost <= 0.0
            near = abs(cost) <= 1e-9
            """
        )

    def test_excluded_under_tests_paths(self):
        assert "REPRO-D003" not in rules_fired(
            "assert x == 0.5\n", path="tests/test_mod.py"
        )


# ------------------------------------------------------------ rule: D004


class TestFilesystemOrder:
    def test_fires_on_unsorted_listing(self):
        assert "REPRO-D004" in rules_fired(
            """
            import os

            def load(d):
                for name in os.listdir(d):
                    read(name)
            """
        )
        assert "REPRO-D004" in rules_fired(
            "names = [p for p in path.glob('*.lef')]\n"
        )

    def test_quiet_when_sorted(self):
        assert "REPRO-D004" not in rules_fired(
            """
            import os

            def load(d):
                for name in sorted(os.listdir(d)):
                    read(name)
            """
        )


# ------------------------------------------------------------ rule: G002


class TestBroadExcept:
    def test_fires_on_bare_and_broad_except(self):
        assert "REPRO-G002" in rules_fired(
            """
            try:
                work()
            except:
                pass
            """
        )
        assert "REPRO-G002" in rules_fired(
            """
            try:
                work()
            except Exception:
                log()
            """
        )

    def test_quiet_only_with_reraise(self):
        assert "REPRO-G002" not in rules_fired(
            """
            try:
                work()
            except Exception:
                cleanup()
                raise
            """
        )
        # A narrower clause in front does not excuse the broad one.
        assert "REPRO-G002" in rules_fired(
            """
            try:
                work()
            except KeyError:
                record()
                raise
            except Exception:
                fallback()
            """
        )


# ------------------------------------------------------------ rule: G003


class TestWallClock:
    def test_fires_on_time_time(self):
        assert "REPRO-G003" in rules_fired(
            """
            import time
            start = time.time()
            """
        )

    def test_quiet_on_monotonic_clocks(self):
        assert "REPRO-G003" not in rules_fired(
            """
            import time
            start = time.perf_counter()
            tick = time.monotonic()
            """
        )


# ------------------------------------------------------------ rule: O001


class TestObsNames:
    def test_fires_on_convention_violations(self):
        assert "REPRO-O001" in rules_fired(
            'get_metrics().count("Flow Failures")\n'
        )
        assert "REPRO-O001" in rules_fired(
            """
            def f(tracer):
                with tracer.span("justoneword"):
                    pass
            """
        )

    def test_quiet_on_conforming_names_and_fstring_prefixes(self):
        assert "REPRO-O001" not in rules_fired(
            """
            def f(metrics, name):
                metrics.count("groute.maze_calls")
                metrics.gauge("flow.gr_overflow", 1.0)
                metrics.count(f"flow.failed.{name}")
            """
        )

    def test_quiet_on_unrelated_receivers(self):
        # list.count() is not a metrics call even though the method
        # name collides.
        assert "REPRO-O001" not in rules_fired(
            'hits = ["A", "B"].count("A")\n'
        )


# ------------------------------------------------------------ rule: R001


class TestNonAtomicWrites:
    def test_fires_on_write_text_of_serialized_data(self):
        assert "REPRO-R001" in rules_fired(
            """
            import json
            def save(path, doc):
                path.write_text(json.dumps(doc, indent=1))
            """
        )
        assert "REPRO-R001" in rules_fired(
            """
            import pickle
            def save(path, state):
                path.write_bytes(pickle.dumps(state))
            """
        )

    def test_fires_on_dump_into_open_handle(self):
        assert "REPRO-R001" in rules_fired(
            """
            import json
            def save(fh, doc):
                json.dump(doc, fh)
            """
        )

    def test_fires_on_open_w_of_json_or_checkpoint_path(self):
        assert "REPRO-R001" in rules_fired(
            'fh = open("report.json", "w")\n'
        )
        assert "REPRO-R001" in rules_fired(
            'fh = open("run.ckpt", "wb")\n'
        )
        assert "REPRO-R001" in rules_fired(
            'fh = open("checkpoints/state.bin", "wb")\n'
        )

    def test_is_error_and_repo_wide(self):
        spec = RULES["REPRO-R001"]
        assert spec.severity is Severity.ERROR
        assert spec.applies_to("src/repro/viz/mod.py")
        assert "atomic_write" in spec.hint

    def test_quiet_on_atomic_and_plain_writes(self):
        # The sanctioned pattern: serialize, then atomic_write.
        assert "REPRO-R001" not in rules_fired(
            """
            import json
            from repro.ckpt import atomic_write
            def save(path, doc):
                atomic_write(path, json.dumps(doc, indent=1))
            """
        )
        # Plain text artifacts (LEF/DEF/SVG) are out of scope.
        assert "REPRO-R001" not in rules_fired(
            'def save(path, text):\n    path.write_text(text)\n'
        )
        # Reads are fine, as is the atomic writer's own implementation path.
        assert "REPRO-R001" not in rules_fired(
            'fh = open("report.json", "r")\n'
        )
        assert "REPRO-R001" not in rules_fired(
            "import json\npath.write_text(json.dumps(d))\n",
            path="src/repro/ckpt/atomic.py",
        )


# ------------------------------------------------------- rules: classics


class TestClassics:
    def test_mutable_default_fires_and_none_is_quiet(self):
        assert "REPRO-C001" in rules_fired("def f(x, acc=[]):\n    pass\n")
        assert "REPRO-C001" in rules_fired(
            "def f(x, acc=dict()):\n    pass\n"
        )
        assert "REPRO-C001" not in rules_fired(
            "def f(x, acc=None):\n    pass\n"
        )

    def test_shadowed_builtin_fires_for_locals_not_methods(self):
        assert "REPRO-C002" in rules_fired("id = 7\n")
        assert "REPRO-C002" in rules_fired("def f(type):\n    pass\n")
        assert "REPRO-C002" not in rules_fired(
            """
            class Lexer:
                def next(self):
                    return None
            """
        )


# -------------------------------------------------------- suppressions


class TestSuppression:
    def test_noqa_suppresses_named_rule(self):
        code = "start = displacement == 0.0  # repro: noqa:REPRO-D003\n"
        findings, suppressed = lint_source(code, "src/repro/mod.py")
        assert not findings
        assert suppressed == 1

    def test_noqa_with_justification_and_multiple_rules(self):
        noqa = suppressions(
            "x = 1  # repro: noqa:REPRO-D003,REPRO-C002 — because\n"
        )
        assert noqa[1] == frozenset({"REPRO-D003", "REPRO-C002"})

    def test_bare_noqa_suppresses_everything(self):
        code = "id = displacement == 0.0  # repro: noqa\n"
        findings, suppressed = lint_source(code, "src/repro/mod.py")
        assert not findings
        assert suppressed == 2  # D003 + C002

    def test_noqa_for_other_rule_does_not_suppress(self):
        code = "start = displacement == 0.0  # repro: noqa:REPRO-G002\n"
        findings, _ = lint_source(code, "src/repro/mod.py")
        assert {f.rule for f in findings} == {"REPRO-D003"}


# ------------------------------------------------------ engine plumbing


class TestEngine:
    def test_select_and_ignore(self):
        code = "import time\nid = 7\nstart = time.time()\n"
        only = lint_snippet(code, select=("REPRO-G003",))
        assert {f.rule for f in only} == {"REPRO-G003"}
        rest = lint_snippet(code, ignore=("REPRO-G003",))
        assert "REPRO-G003" not in {f.rule for f in rest}

    def test_syntax_error_becomes_parse_error_finding(self):
        findings, _ = lint_source("def broken(:\n", "src/repro/mod.py")
        assert [f.rule for f in findings] == ["PARSE-ERROR"]
        assert findings[0].severity is Severity.ERROR

    def test_lint_paths_walks_tree_and_reports_relative(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "bad.py").write_text("import time\nstart = time.time()\n")
        result = lint_paths([pkg], relative_to=tmp_path)
        assert result.files_scanned == 2
        assert {f.path for f in result.findings} == {"pkg/bad.py"}
        assert result.ok  # G003 is only a warning

    def test_every_rule_has_metadata(self):
        table = rule_table()
        for rule_id, spec in RULES.items():
            assert spec.hint, rule_id
            assert rule_id in table

    def test_finding_roundtrip_and_report_io(self, tmp_path):
        finding = Finding(
            rule="REPRO-D003",
            severity=Severity.ERROR,
            path="src/repro/mod.py",
            line=3,
            message="float literal compared with ==/!=",
            hint="use isclose",
            col=8,
        )
        assert finding_from_dict(finding_to_dict(finding)) == finding
        doc = report_document([finding], files_scanned=1)
        path = write_report(tmp_path / "report.json", doc)
        loaded, loaded_doc = load_report(path)
        assert loaded == [finding]
        assert loaded_doc["schema"] == "repro.analyze/1"
        assert loaded_doc["summary"]["error"] == 1

    def test_render_orders_errors_first(self):
        warn = Finding(
            rule="REPRO-C002", severity=Severity.WARNING,
            path="a.py", line=1, message="w",
        )
        err = Finding(
            rule="REPRO-D003", severity=Severity.ERROR,
            path="z.py", line=9, message="e",
        )
        text = render_findings([warn, err])
        assert text.index("z.py") < text.index("a.py")
        assert "1 error, 1 warning" in text

    def test_main_exit_codes_and_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = displacement == 0.0\n")
        out = tmp_path / "report.json"
        code = analyze_main(
            [str(bad), "--format", "json", "-o", str(out),
             "--relative-to", str(tmp_path)]
        )
        assert code == 1
        document = json.loads(out.read_text())
        assert document["findings"][0]["ruleId"] == "REPRO-D003"
        printed = json.loads(capsys.readouterr().out)
        assert printed == document

    def test_repo_source_tree_lints_clean(self):
        # The acceptance bar: `python -m repro.analyze src/` exits 0.
        result = lint_paths(["src"])
        errors = [f for f in result.findings if f.severity is Severity.ERROR]
        assert errors == []


# --------------------------------------------------------- invariants


@pytest.fixture()
def routed_small():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    return design, router


def _corrupting_edge(router, need_uncovered=False):
    """A (net, wire edge id) pair where the edge is disjoint from the net's
    route — and, optionally, outside its guides — so adding it corrupts
    connectivity (and coverage) without touching accounting."""
    graph, grid = router.graph, router.grid
    guides = router.guides() if need_uncovered else {}
    shape = graph.wire_edge_shape(1)
    for name in sorted(router.routes):
        route = router.routes[name]
        if not route.terminals:
            continue
        nodes = route_nodes(graph, route)
        rects = [g.rect for g in guides.get(name, ()) if g.layer == 1]
        for gx in range(shape[0]):
            for gy in range(shape[1]):
                edge = graph.wire_id(1, gx, gy)
                a, b = graph.endpoints(edge)
                if a in nodes or b in nodes or edge in route.edges:
                    continue
                if need_uncovered:
                    centers = (
                        grid.rect_of(a[1], a[2]).center,
                        grid.rect_of(b[1], b[2]).center,
                    )
                    if any(
                        r.contains_point(c) for r in rects for c in centers
                    ):
                        continue
                return name, edge
    raise AssertionError("no corrupting edge found")


class TestInvariants:
    def test_clean_flow_state_passes(self, routed_small):
        design, router = routed_small
        assert check_flow_state(design, router) == []

    def test_accounting_corruption_flagged(self, routed_small):
        design, router = routed_small
        router.graph.wire_usage[1][0, 0] += 1.0
        rules = {f.rule for f in check_accounting(router)}
        assert "FLOW-A001" in rules

    def test_negative_usage_flagged(self, routed_small):
        _, router = routed_small
        router.graph.via_usage[0][0, 0] = -1
        rules = {f.rule for f in check_accounting(router)}
        assert "FLOW-A002" in rules

    def test_dangling_segment_flagged(self, routed_small):
        design, router = routed_small
        name, far = _corrupting_edge(router)
        router.routes[name].edges.add(far)
        router.graph.apply_route([far])
        rules = {f.rule for f in check_connectivity(router)}
        assert "FLOW-C002" in rules
        # accounting stays clean: the corruption classes are independent
        assert check_accounting(router) == []

    def test_disconnected_terminals_flagged(self, routed_small):
        design, router = routed_small
        multi = next(
            name
            for name in sorted(router.routes)
            if len(router.routes[name].terminals) >= 2
            and router.routes[name].edges
        )
        route = router.routes[multi]
        removed = sorted(route.edges)[: max(1, len(route.edges) // 2)]
        for edge in removed:
            route.edges.discard(edge)
        router.graph.apply_route(removed, sign=-1)
        rules = {f.rule for f in check_connectivity(router)}
        assert "FLOW-C001" in rules or "FLOW-C002" in rules

    def test_invalid_edge_flagged(self, routed_small):
        _, router = routed_small
        name = sorted(router.routes)[0]
        router.routes[name].edges.add(router.graph.num_edges + 10_000)
        rules = {f.rule for f in check_connectivity(router)}
        assert "FLOW-C004" in rules

    def test_stale_guides_flagged(self, routed_small):
        design, router = routed_small
        stale = router.guides()
        name, far = _corrupting_edge(router, need_uncovered=True)
        router.routes[name].edges.add(far)
        rules = {f.rule for f in check_guide_coverage(router, stale)}
        assert "FLOW-C003" in rules
        # freshly-emitted guides cover by construction
        assert check_guide_coverage(router) == []

    def test_overlapping_cells_flagged(self, routed_small):
        design, router = routed_small
        names = sorted(design.cells)
        a, b = design.cells[names[0]], design.cells[names[1]]
        design.move_cell(b.name, a.x, a.y)
        findings = check_placement(design)
        assert any(
            f.rule == "FLOW-L001" and "overlaps" in f.message
            for f in findings
        )

    def test_off_site_cell_flagged(self, routed_small):
        design, _ = routed_small
        name = sorted(design.cells)[0]
        cell = design.cells[name]
        design.move_cell(name, cell.x + 1, cell.y)
        findings = check_placement(design)
        assert any(
            f.rule == "FLOW-L001" and "off_site" in f.message
            for f in findings
        )

    def test_bad_ilp_model_flagged(self):
        model = IlpModel()
        x = model.add_binary(float("nan"))
        model.add_binary(float("inf"))
        model.add_at_most_one([x])
        model.rows += [(), (x, 7)]  # past the checks of add_at_most_one
        model.exact += [True, False]
        findings = check_model(model)
        assert [f.rule for f in findings] == ["FLOW-M001"] * 2 + ["FLOW-M002"] * 2
        assert "no terms" in findings[2].message
        assert "out of range" in findings[3].message

    def test_well_formed_ilp_model_passes(self):
        model = IlpModel()
        x = model.add_binary(1.0)
        y = model.add_binary(2.0)
        model.add_exactly_one([x, y])
        assert check_model(model) == []


# ------------------------------------------- suppression edge cases


class TestSuppressionEdgeCases:
    def test_multi_rule_comma_list_with_spaces(self):
        noqa = suppressions(
            "x = 1  # repro: noqa: REPRO-D003 , REPRO-C002\n"
        )
        assert noqa[1] == frozenset({"REPRO-D003", "REPRO-C002"})

    def test_trailing_justification_after_dash(self):
        noqa = suppressions(
            "x = 1  # repro: noqa:REPRO-G002 — any unpickle death is corrupt\n"
        )
        assert noqa[1] == frozenset({"REPRO-G002"})

    def test_noqa_on_continuation_line_maps_to_that_line(self):
        source = (
            "value = compute(\n"
            "    arg,  # repro: noqa:REPRO-D003\n"
            ")\n"
        )
        noqa = suppressions(source)
        assert list(noqa) == [2]
        # ...so it does NOT suppress a finding anchored on line 1
        code = (
            "start = (displacement\n"
            "    == 0.0)  # repro: noqa:REPRO-D003\n"
        )
        findings, suppressed = lint_source(code, "src/repro/mod.py")
        assert {f.rule for f in findings} == {"REPRO-D003"}
        assert suppressed == 0

    def test_lowercase_and_malformed_ids_are_ignored(self):
        noqa = suppressions("x = 1  # repro: noqa:repro-d003, bogus\n")
        assert noqa[1] == frozenset()


class TestFileWalkDeterminism:
    def test_iter_python_files_sorted_and_deduplicated(self, tmp_path):
        from repro.analyze import iter_python_files

        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        b = pkg / "b.py"
        a = pkg / "a.py"
        c = sub / "c.py"
        for f in (b, a, c):
            f.write_text("x = 1\n")
        (pkg / "notes.txt").write_text("not python\n")
        listed = iter_python_files([pkg, a, tmp_path / "pkg"])
        assert listed == sorted({a, b, c})
        # stable under permutation of the input paths
        assert iter_python_files([a, pkg]) == listed


# --------------------------------------- REPRO-U001 (stale noqa)


class TestUnusedSuppressions:
    def _analyze(self, tmp_path, source, **config):
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent(source))
        return lint_paths([mod], LintConfig(**config), relative_to=tmp_path)

    def _u001(self, result):
        return [f for f in result.findings if f.rule == "REPRO-U001"]

    def test_live_suppression_is_quiet(self, tmp_path):
        analysis = self._analyze(
            tmp_path,
            "start = displacement == 0.0  # repro: noqa:REPRO-D003\n",
        )
        assert "REPRO-U001" not in {f.rule for f in analysis.findings}
        assert analysis.suppressed == 1

    def test_stale_suppression_fires(self, tmp_path):
        analysis = self._analyze(
            tmp_path,
            "x = 1  # repro: noqa:REPRO-D003\n",
        )
        fired = [
            f for f in analysis.findings if f.rule == "REPRO-U001"
        ]
        assert len(fired) == 1
        assert "REPRO-D003" in fired[0].message

    def test_unknown_rule_id_fires(self, tmp_path):
        analysis = self._analyze(
            tmp_path,
            "x = 1  # repro: noqa:REPRO-Z999\n",
        )
        fired = [
            f for f in analysis.findings if f.rule == "REPRO-U001"
        ]
        assert len(fired) == 1
        assert "unknown rule ID" in fired[0].message

    def test_bare_noqa_suppressing_nothing_fires(self, tmp_path):
        analysis = self._analyze(tmp_path, "x = 1  # repro: noqa\n")
        fired = [
            f for f in analysis.findings if f.rule == "REPRO-U001"
        ]
        assert len(fired) == 1
        assert "bare" in fired[0].message

    def test_docstring_noqa_text_is_not_flagged(self, tmp_path):
        analysis = self._analyze(
            tmp_path,
            '''
            def helper():
                """Suppress with `# repro: noqa:REPRO-D003` inline."""
                return 1
            ''',
        )
        assert "REPRO-U001" not in {f.rule for f in analysis.findings}

    def test_filtered_out_rule_is_not_judged(self, tmp_path):
        source = """
        def load(path):
            try:
                return open(path).read()
            except Exception:  # repro: noqa:REPRO-G002
                return None
        """
        assert self._u001(self._analyze(tmp_path, source)) == []
        ignored = self._analyze(tmp_path, source, ignore=("REPRO-G002",))
        assert self._u001(ignored) == []
        for rule_id in ("REPRO-D001", "REPRO-U001"):
            selected = self._analyze(
                tmp_path, source, select=(rule_id, "REPRO-U001")
            )
            assert self._u001(selected) == [], rule_id

    def test_bare_noqa_is_not_judged_when_rules_are_filtered(self, tmp_path):
        source = "x = 1  # repro: noqa\n"
        assert self._u001(self._analyze(tmp_path, source))
        narrowed = self._analyze(tmp_path, source, ignore=("REPRO-G002",))
        assert self._u001(narrowed) == []

    def test_ignoring_u001_silences_it(self, tmp_path):
        analysis = self._analyze(
            tmp_path,
            "x = 1  # repro: noqa:REPRO-D003\n",
            ignore=("REPRO-U001",),
        )
        assert self._u001(analysis) == []

    def test_retired_rule_id_is_unknown(self, tmp_path):
        fired = self._u001(
            self._analyze(tmp_path, "x = 1  # repro: noqa:REPRO-T002\n")
        )
        assert len(fired) == 1
        assert "unknown rule ID(s) REPRO-T002" in fired[0].message


# ----------------------------------------------- baseline lifecycle


class TestBaseline:
    def _project(self, tmp_path, dirty=False):
        pkg = tmp_path / "pkg"
        pkg.mkdir(exist_ok=True)
        body = "import time\nstart = time.time()\n" if dirty else "x = 1\n"
        (pkg / "mod.py").write_text(body)
        return pkg

    def test_update_baseline_is_byte_stable(self, tmp_path):
        from repro.analyze import update_baseline

        pkg = self._project(tmp_path, dirty=True)
        baseline = tmp_path / "ANALYZE_baseline.json"
        update_baseline(baseline, [pkg], relative_to=tmp_path)
        first = baseline.read_bytes()
        update_baseline(baseline, [pkg], relative_to=tmp_path)
        assert baseline.read_bytes() == first
        assert first.endswith(b"\n")

    def test_check_baseline_passes_after_update(self, tmp_path):
        from repro.analyze import check_baseline, update_baseline

        pkg = self._project(tmp_path, dirty=True)
        baseline = tmp_path / "ANALYZE_baseline.json"
        update_baseline(baseline, [pkg], relative_to=tmp_path)
        ok, lines = check_baseline(baseline, [pkg], relative_to=tmp_path)
        assert ok and lines == []

    def test_check_baseline_flags_new_findings(self, tmp_path):
        from repro.analyze import check_baseline, update_baseline

        pkg = self._project(tmp_path)
        baseline = tmp_path / "ANALYZE_baseline.json"
        update_baseline(baseline, [pkg], relative_to=tmp_path)
        (pkg / "mod.py").write_text("import time\nstart = time.time()\n")
        ok, lines = check_baseline(baseline, [pkg], relative_to=tmp_path)
        assert not ok
        assert any(line.startswith("NEW") for line in lines)

    def test_check_baseline_flags_stale_entries(self, tmp_path):
        from repro.analyze import check_baseline, update_baseline

        pkg = self._project(tmp_path, dirty=True)
        baseline = tmp_path / "ANALYZE_baseline.json"
        update_baseline(baseline, [pkg], relative_to=tmp_path)
        (pkg / "mod.py").write_text("x = 1\n")  # the finding is fixed
        ok, lines = check_baseline(baseline, [pkg], relative_to=tmp_path)
        assert not ok
        assert any(line.startswith("GONE") for line in lines)

    def test_check_baseline_missing_file_fails(self, tmp_path):
        from repro.analyze import check_baseline

        pkg = self._project(tmp_path)
        ok, lines = check_baseline(
            tmp_path / "nope.json", [pkg], relative_to=tmp_path
        )
        assert not ok
        assert "unreadable" in lines[0]

    def test_main_update_and_check_roundtrip(self, tmp_path):
        pkg = self._project(tmp_path, dirty=True)
        baseline = tmp_path / "ANALYZE_baseline.json"
        assert analyze_main(
            [str(pkg), "--baseline", str(baseline), "--update-baseline",
             "--relative-to", str(tmp_path)]
        ) == 0
        assert analyze_main(
            [str(pkg), "--baseline", str(baseline), "--check-baseline",
             "--relative-to", str(tmp_path)]
        ) == 0
        (pkg / "mod.py").write_text("x = displacement == 0.0\n")
        assert analyze_main(
            [str(pkg), "--baseline", str(baseline), "--check-baseline",
             "--relative-to", str(tmp_path)]
        ) == 1

    def test_repo_baseline_matches_committed(self):
        from repro.analyze import check_baseline

        ok, lines = check_baseline("ANALYZE_baseline.json", ["src"])
        assert ok, "\n".join(lines)
