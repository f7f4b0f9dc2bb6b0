"""Call graph construction, reachability, and flag closure.

Built once per run from the :class:`~repro.analyze.dataflow.project.
Project` and shared by every interprocedural pass.  Only ordinary call
expressions make edges: work behind a call stays on the caller's thread
and under its deadline stack, which is what deadline coverage follows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analyze.dataflow.project import FunctionInfo, Project
from repro.analyze.rules import _call_name


@dataclass(slots=True)
class CallSite:
    """One call expression inside a function."""

    node: ast.Call
    dotted: str  # best-effort dotted spelling at the call site
    callee: str | None  # resolved project qualname, when resolution worked


@dataclass(slots=True)
class CallIndex:
    """Every function's outgoing call edges."""

    calls: dict[str, list[CallSite]] = field(default_factory=dict)

    def callees(self, qualname: str) -> list[str]:
        return sorted(
            {
                site.callee
                for site in self.calls.get(qualname, ())
                if site.callee is not None
            }
        )

    def resolved_edges(self) -> int:
        return sum(
            1
            for sites in self.calls.values()
            for site in sites
            if site.callee is not None
        )

    def total_edges(self) -> int:
        return sum(len(sites) for sites in self.calls.values())


def build_call_index(project: Project) -> CallIndex:
    """Resolve every call site in every project function."""
    index = CallIndex()
    for info in project.functions_sorted():
        module = project.modules[info.module]
        sites: list[CallSite] = []
        for node in _own_nodes(info):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            sites.append(
                CallSite(
                    node=node,
                    dotted=dotted,
                    callee=project.resolve_call(module, info, node),
                )
            )
        index.calls[info.qualname] = sites
    return index


def _own_nodes(info: FunctionInfo):
    """Walk a function's nodes, pruning nested function definitions.

    Nested defs are indexed as functions of their own; attributing
    their calls to the enclosing function would double-count edges and
    wrongly extend the caller's reachability.
    """
    stack = list(ast.iter_child_nodes(info.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def reachable(index: CallIndex, entries: set[str]) -> set[str]:
    """Transitive closure of ``entries`` over call edges."""
    seen = set(entries)
    work = sorted(entries)
    while work:
        current = work.pop()
        for target in index.callees(current):
            if target not in seen:
                seen.add(target)
                work.append(target)
    return seen


def propagate_flag(index: CallIndex, direct: dict[str, bool]) -> dict[str, bool]:
    """Or-closure of a per-function boolean over **call** edges.

    ``out[f]`` is True when ``direct[f]`` is True or any transitively
    called project function's is.  Deterministic worklist fixpoint.
    """
    out = dict(direct)
    # reverse edges: callee -> callers
    callers: dict[str, list[str]] = {}
    for caller, sites in index.calls.items():
        for site in sites:
            if site.callee is not None:
                callers.setdefault(site.callee, []).append(caller)
    work = sorted(q for q, v in out.items() if v)
    while work:
        current = work.pop()
        for caller in sorted(set(callers.get(current, ()))):
            if not out.get(caller, False):
                out[caller] = True
                work.append(caller)
    return out
