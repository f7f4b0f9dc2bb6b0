"""Findings: the shared currency of both analysis engines.

A :class:`Finding` is one diagnostic — from the AST code linter
(``REPRO-*`` rules) or the flow-invariant checker (``FLOW-*`` rules) —
with a stable rule ID, a severity, a location, and a fix hint.  Findings
serialize to a SARIF-lite JSON document (``repro.analyze/1``) that
mirrors the ``repro.obs`` trace-document conventions (self-describing
``schema`` key, deterministic ordering) so CI can commit a baseline
report and diff regressions cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.ckpt.atomic import atomic_write

SCHEMA = "repro.analyze/1"


class Severity(str, Enum):
    """Finding severities; only ``ERROR`` fails a lint run."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic from either analysis engine."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    hint: str = ""
    col: int = 0

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        text = f"{location}: {self.severity.value} {self.rule}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def finding_to_dict(finding: Finding) -> dict[str, object]:
    """JSON-able dict for one finding (SARIF-lite ``result`` analogue)."""
    out: dict[str, object] = {
        "ruleId": finding.rule,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "message": finding.message,
    }
    if finding.col:
        out["col"] = finding.col
    if finding.hint:
        out["hint"] = finding.hint
    return out


def finding_from_dict(data: dict[str, object]) -> Finding:
    """Inverse of :func:`finding_to_dict`."""
    return Finding(
        rule=str(data["ruleId"]),
        severity=Severity(str(data["severity"])),
        path=str(data["path"]),
        line=int(data.get("line", 0)),  # type: ignore[arg-type]
        message=str(data["message"]),
        hint=str(data.get("hint", "")),
        col=int(data.get("col", 0)),  # type: ignore[arg-type]
    )


def severity_counts(findings: list[Finding]) -> dict[str, int]:
    counts = {s.value: 0 for s in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def report_document(
    findings: list[Finding],
    *,
    files_scanned: int = 0,
    suppressed: int = 0,
    rule_table: dict[str, str] | None = None,
) -> dict[str, object]:
    """Assemble the full SARIF-lite report payload (deterministic)."""
    ordered = sorted(findings, key=Finding.sort_key)
    per_rule: dict[str, int] = {}
    for finding in ordered:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    doc: dict[str, object] = {"schema": SCHEMA, "tool": "repro.analyze"}
    doc["summary"] = {
        "files": files_scanned,
        "suppressed": suppressed,
        **severity_counts(ordered),
        "by_rule": dict(sorted(per_rule.items())),
    }
    if rule_table:
        doc["rules"] = dict(sorted(rule_table.items()))
    doc["findings"] = [finding_to_dict(f) for f in ordered]
    return doc


def load_report(path: str | Path) -> tuple[list[Finding], dict[str, object]]:
    """Read a report back as (findings, whole document)."""
    doc = json.loads(Path(path).read_text())
    findings = [finding_from_dict(d) for d in doc.get("findings", ())]
    return findings, doc


def write_report(path: str | Path, document: dict[str, object]) -> Path:
    """Write the JSON report document atomically; returns the path written."""
    path = Path(path)
    atomic_write(path, json.dumps(document, indent=1, sort_keys=False) + "\n")
    return path


def render_findings(findings: list[Finding], *, suppressed: int = 0) -> str:
    """Human report: findings ordered by location, worst severity first."""
    ordered = sorted(
        findings, key=lambda f: (_SEVERITY_RANK[f.severity], *f.sort_key())
    )
    lines = [f.render() for f in ordered]
    counts = severity_counts(findings)
    tally = ", ".join(f"{n} {sev}" for sev, n in counts.items() if n)
    summary = tally or "clean"
    if suppressed:
        summary += f" ({suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines)
