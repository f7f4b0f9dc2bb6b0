"""``repro.analyze`` — static analysis for code and flow state.

Two engines share one :class:`Finding` currency and one SARIF-lite
report format (``repro.analyze/1``):

* the **AST linter** (:mod:`repro.analyze.rules`,
  :mod:`repro.analyze.linter`): ~10 repo-specific rules over the source
  tree — determinism hazards (``REPRO-D*``), guard hazards
  (``REPRO-G*``), obs naming (``REPRO-O*``), classics (``REPRO-C*``).
  Run it with ``python -m repro.analyze src/``.
* the **flow-invariant checker** (:mod:`repro.analyze.invariants`):
  accounting/connectivity/legality/ILP-shape audits over a loaded
  ``Design``/``GlobalRouter`` state.  Run it with ``crp check``.

A third, interprocedural engine (:mod:`repro.analyze.dataflow`) layers
project-wide determinism taint and guard-coverage passes
(``REPRO-T*``/``REPRO-G004+``/``REPRO-U001``) on top of the linter;
:func:`repro.analyze.api.run_source_analysis` runs everything with one
call, and ``crp analyze`` is the unified CLI.
"""

from repro.analyze.api import (
    SourceAnalysis,
    analysis_report,
    check_baseline,
    run_source_analysis,
    update_baseline,
)
from repro.analyze.findings import (
    SCHEMA,
    Finding,
    Severity,
    finding_from_dict,
    finding_to_dict,
    load_report,
    render_findings,
    report_document,
    severity_counts,
    write_report,
)
from repro.analyze.linter import (
    LintConfig,
    LintResult,
    iter_python_files,
    lint_paths,
    lint_source,
    suppressions,
    unused_suppression_findings,
)
from repro.analyze.rules import RULES, Rule, rule, rule_table
from repro.analyze.invariants import (
    FLOW_RULES,
    check_accounting,
    check_connectivity,
    check_flow_state,
    check_guide_coverage,
    check_model,
    check_placement,
)

__all__ = [
    "SCHEMA",
    "SourceAnalysis",
    "analysis_report",
    "check_baseline",
    "run_source_analysis",
    "unused_suppression_findings",
    "update_baseline",
    "Finding",
    "Severity",
    "finding_from_dict",
    "finding_to_dict",
    "load_report",
    "render_findings",
    "report_document",
    "severity_counts",
    "write_report",
    "LintConfig",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "suppressions",
    "RULES",
    "Rule",
    "rule",
    "rule_table",
    "FLOW_RULES",
    "check_accounting",
    "check_connectivity",
    "check_flow_state",
    "check_guide_coverage",
    "check_model",
    "check_placement",
]
