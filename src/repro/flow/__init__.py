"""The end-to-end physical-design flow (Fig. 1 of the paper):
global routing -> [CR&P or baseline cell movement] -> detailed routing,
with per-stage runtimes for Figs. 2 and 3.  The paper's tables come from
``benchmarks/`` and ``crp suite``, which call :func:`run_flow`."""

from repro.flow.pipeline import FlowResult, run_flow
from repro.flow.runtime import runtime_breakdown_pct

__all__ = [
    "FlowResult",
    "run_flow",
    "runtime_breakdown_pct",
]
