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
  ``Design``/``GlobalRouter`` state.  Run it with ``crp analyze -b``.

The linter has one driver, :func:`lint_paths`, and one result type,
:class:`LintResult`; it also judges stale ``# repro: noqa`` comments
(``REPRO-U001``).  ``crp analyze`` runs it and, with ``-b``, the
flow-invariant checker, under one exit code.
"""

from repro.analyze.api import (
    analysis_report,
    check_baseline,
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
    "analysis_report",
    "check_baseline",
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
