"""Interprocedural determinism & guard-coverage analysis (``REPRO-T/G/U``).

Layered on the per-file linter: a module-resolved project model
(:mod:`.project`), a call graph (:mod:`.callgraph`), summary-based
taint fixpoint (:mod:`.summaries`, :mod:`.taint`), and guard coverage
checks (:mod:`.coverage`), driven by :func:`run_dataflow`
(:mod:`.engine`).  See DESIGN.md "Interprocedural analysis".
"""

from repro.analyze.dataflow.callgraph import (
    CallIndex,
    build_call_index,
    propagate_flag,
    reachable,
)
from repro.analyze.dataflow.engine import (
    DataflowConfig,
    DataflowResult,
    run_dataflow,
)
from repro.analyze.dataflow.project import Project
from repro.analyze.dataflow.ruleset import (
    DATAFLOW_RULES,
    register_dataflow_rules,
)
from repro.analyze.dataflow.summaries import Summary
from repro.analyze.dataflow.taint import compute_summaries, taint_findings

register_dataflow_rules()

__all__ = [
    "CallIndex",
    "DATAFLOW_RULES",
    "DataflowConfig",
    "DataflowResult",
    "Project",
    "Summary",
    "build_call_index",
    "compute_summaries",
    "propagate_flag",
    "reachable",
    "register_dataflow_rules",
    "run_dataflow",
    "taint_findings",
]
