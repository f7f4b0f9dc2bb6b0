"""The report document and the two-sided baseline gate.

Both entry points — ``python -m repro.analyze`` and ``crp analyze`` —
run :func:`repro.analyze.linter.lint_paths` and render its
:class:`~repro.analyze.linter.LintResult` with :func:`analysis_report`.

The committed ``ANALYZE_baseline.json`` is the report document of a
clean run over ``src/``: :func:`update_baseline` regenerates it
byte-stably (atomic write, sorted keys at every level), and
:func:`check_baseline` is the CI gate — byte comparison first, then a
two-sided semantic diff (new findings AND baseline entries that no
longer fire both fail) plus a rule-table diff, so drift in either
direction is visible in the job summary.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analyze.findings import (
    Finding,
    load_report,
    report_document,
    write_report,
)
from repro.analyze.linter import LintResult, lint_paths
from repro.analyze.rules import rule_table

BASELINE_NAME = "ANALYZE_baseline.json"


def analysis_report(result: LintResult) -> dict[str, object]:
    """The deterministic SARIF-lite document for one analysis run."""
    return report_document(
        result.findings,
        files_scanned=result.files_scanned,
        suppressed=result.suppressed,
        rule_table=rule_table(),
    )


def _render_document(document: dict[str, object]) -> str:
    return json.dumps(document, indent=1, sort_keys=False) + "\n"


def update_baseline(
    baseline_path: str | Path = BASELINE_NAME,
    paths: list[str | Path] | None = None,
    *,
    relative_to: str | Path | None = ".",
) -> LintResult:
    """Regenerate the committed baseline (atomic, sorted, byte-stable)."""
    result = lint_paths(paths or ["src"], relative_to=relative_to)
    write_report(baseline_path, analysis_report(result))
    return result


def _finding_keys(findings: list[Finding]) -> set[tuple]:
    return {
        (f.path, f.line, f.rule, f.severity.value, f.message)
        for f in findings
    }


def check_baseline(
    baseline_path: str | Path = BASELINE_NAME,
    paths: list[str | Path] | None = None,
    *,
    relative_to: str | Path | None = ".",
) -> tuple[bool, list[str]]:
    """Two-sided baseline gate; returns (ok, human-readable diff lines).

    Fails on: a missing/unreadable baseline, any current finding absent
    from the baseline (*regression*), any baseline finding that no
    longer fires (*stale baseline* — the fix must be banked by
    regenerating), and any rule-table drift.  Byte-identical documents
    short-circuit to ok.
    """
    baseline_path = Path(baseline_path)
    result = lint_paths(paths or ["src"], relative_to=relative_to)
    document = analysis_report(result)
    rendered = _render_document(document)
    try:
        committed = baseline_path.read_text()
    except OSError as exc:
        return False, [f"baseline unreadable: {exc}"]
    if committed == rendered:
        return True, []

    lines: list[str] = []
    try:
        base_findings, base_doc = load_report(baseline_path)
    except (ValueError, KeyError) as exc:
        return False, [f"baseline unparsable: {exc}"]
    current = _finding_keys(result.findings)
    baseline = _finding_keys(base_findings)
    for key in sorted(current - baseline):
        lines.append(
            f"NEW     {key[2]} {key[3]} at {key[0]}:{key[1]} — {key[4]}"
        )
    for key in sorted(baseline - current):
        lines.append(
            f"GONE    {key[2]} {key[3]} at {key[0]}:{key[1]} — {key[4]}"
        )
    base_rules = dict(base_doc.get("rules", {}))
    cur_rules = rule_table()
    for rid in sorted(set(base_rules) | set(cur_rules)):
        old, new = base_rules.get(rid), cur_rules.get(rid)
        if old == new:
            continue
        if old is None:
            lines.append(f"RULE+   {rid}: {new}")
        elif new is None:
            lines.append(f"RULE-   {rid}: {old}")
        else:
            lines.append(f"RULE~   {rid}: {old!r} -> {new!r}")
    if not lines:
        lines.append(
            "document drift without finding/rule changes (summary or "
            "stats fields differ) — regenerate with --update-baseline"
        )
    lines.append(
        "baseline drift: regenerate with "
        "`python -m repro.analyze --update-baseline` and commit the diff"
    )
    return False, lines
