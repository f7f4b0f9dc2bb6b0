"""The dataflow driver: load, resolve, fixpoint, check, suppress.

One call to :func:`run_dataflow` runs every interprocedural pass over
a file set and returns findings that have already been through the
same ``# repro: noqa`` suppression discipline as the per-file linter
(suppressions are honored at the finding's *anchor* line — the taint
source for ``REPRO-T``, the write/handler/loop for the others).  The
run is observable under ``analyze.dataflow.*`` metrics and an
``analyze.dataflow`` span, mirroring the linter's ``analyze.*``
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.dataflow.callgraph import build_call_index
from repro.analyze.dataflow.coverage import coverage_findings
from repro.analyze.dataflow.project import Project
from repro.analyze.dataflow.ruleset import register_dataflow_rules
from repro.analyze.dataflow.summaries import Summary
from repro.analyze.dataflow.taint import compute_summaries, taint_findings
from repro.analyze.findings import Finding, Severity
from repro.analyze.linter import iter_python_files, suppressions
from repro.obs import get_metrics, get_tracer


@dataclass(frozen=True, slots=True)
class DataflowConfig:
    """Entry-point and exemption knobs for the interprocedural passes."""

    #: bare names whose functions root the deadline-coverage pass
    flow_entries: tuple[str, ...] = ("run_flow",)


@dataclass(slots=True)
class DataflowResult:
    """Aggregate outcome of one dataflow run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    #: path -> {(line, rule)} suppressions that absorbed a finding
    used_suppressions: dict[str, set[tuple[int, str]]] = field(
        default_factory=dict
    )
    #: files that failed to parse, as (path, message)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: final per-function summaries (exposed for tests/debugging)
    summaries: dict[str, Summary] = field(default_factory=dict)
    #: deterministic run statistics for the report document
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)


def run_dataflow(
    paths: list[str | Path],
    config: DataflowConfig | None = None,
    *,
    relative_to: str | Path | None = None,
) -> DataflowResult:
    """Run every interprocedural pass over the ``.py`` files in paths."""
    register_dataflow_rules()
    config = config or DataflowConfig()
    result = DataflowResult()
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("analyze.dataflow"):
        files = iter_python_files(paths)
        project = Project.load(files, relative_to=relative_to)
        result.parse_errors = list(project.parse_errors)
        index = build_call_index(project)
        summaries, facts, runs = compute_summaries(project, index)
        result.summaries = summaries

        raw: list[Finding] = taint_findings(facts)
        raw.extend(
            coverage_findings(
                project, index, flow_entries=config.flow_entries
            )
        )
        result.findings, result.suppressed = _apply_noqa(
            raw, project, result.used_suppressions
        )
        result.findings.sort(key=Finding.sort_key)
        result.stats = {
            "modules": len(project.modules),
            "functions": len(project.functions),
            "call_edges": index.total_edges(),
            "resolved_edges": index.resolved_edges(),
            "summary_runs": runs,
        }
        metrics.count("analyze.dataflow.modules", len(project.modules))
        metrics.count("analyze.dataflow.functions", len(project.functions))
        metrics.count("analyze.dataflow.summary_runs", runs)
        metrics.count("analyze.dataflow.findings", len(result.findings))
        metrics.count("analyze.dataflow.suppressed", result.suppressed)
    return result


def _apply_noqa(
    raw: list[Finding],
    project: Project,
    used: dict[str, set[tuple[int, str]]],
) -> tuple[list[Finding], int]:
    """Drop findings suppressed at their anchor line; record usage."""
    noqa_by_path: dict[str, dict[int, frozenset[str] | None]] = {}
    for path, module in project.modules_by_path.items():
        noqa_by_path[path] = suppressions(module.source)
    kept: list[Finding] = []
    dropped = 0
    for finding in raw:
        noqa = noqa_by_path.get(finding.path, {})
        spec = noqa.get(finding.line, frozenset())
        if spec is None or (spec and finding.rule in spec):
            dropped += 1
            used.setdefault(finding.path, set()).add(
                (finding.line, finding.rule)
            )
        else:
            kept.append(finding)
    return kept, dropped
