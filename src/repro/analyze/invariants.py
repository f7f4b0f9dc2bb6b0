"""Flow-invariant checks over loaded ``Design``/``GlobalRouter`` state.

The runtime guard (PR 2) protects a *running* flow; this module audits
a *finished or loaded* state without running anything: the properties
CR&P's results depend on (paper Eqs. 5-9) must hold for any state that
claims to be a valid flow snapshot.

Rule families (``FLOW-*`` IDs, same :class:`Finding` currency as the
code linter):

* ``FLOW-A00x`` — accounting: graph demand arrays must equal what the
  committed routes imply (Eq. 9 bookkeeping), and can never go negative.
* ``FLOW-C00x`` — connectivity: every net's route must connect all its
  terminals, contain no dangling segments, and stay inside its guides.
* ``FLOW-L001`` — legality: the placement must satisfy Eqs. 5-8.
* ``FLOW-M00x`` — ILP well-formedness: finite costs, rows that are
  non-empty and name only variables of the model.
"""

from __future__ import annotations

import math

from repro.analyze.findings import Finding, Severity
from repro.db import Design, check_legality
from repro.obs import get_metrics, get_tracer

Node = tuple[int, int, int]

#: FLOW rule ID -> one-line summary (mirrors ``rules.rule_table()``)
FLOW_RULES: dict[str, str] = {
    "FLOW-A001": "graph demand does not match the committed routes",
    "FLOW-A002": "negative usage in a demand array",
    "FLOW-C001": "net terminals are not connected by the route",
    "FLOW-C002": "route has a dangling segment (component without terminal)",
    "FLOW-C003": "routed node not covered by the net's guides",
    "FLOW-C004": "route edge is outside the routing graph",
    "FLOW-L001": "placement violates a legality constraint (Eqs. 5-8)",
    "FLOW-M001": "ILP variable has a non-finite cost",
    "FLOW-M002": "ILP row is empty or names an unknown variable",
}

_HINTS = {
    "FLOW-A001": "a commit/rip-up or rollback desynced the arrays; "
    "rebuild with GlobalRouter.restore_route or re-route the net",
    "FLOW-A002": "usage arrays only decrease on rip-up; a double rip-up "
    "or bad rollback drove one below zero",
    "FLOW-C001": "re-route the net; a partial rip-up left its terminals "
    "in separate components",
    "FLOW-C002": "remove the orphan edges or re-route; dangling demand "
    "inflates congestion for every other net",
    "FLOW-C003": "regenerate guides after the last route change "
    "(GlobalRouter.guides())",
    "FLOW-C004": "the edge's (layer, gx, gy) is off the graph; the "
    "route was built against a different grid",
    "FLOW-L001": "run the legalizer (repro.legalizer) before handing "
    "the placement to detailed routing",
    "FLOW-M001": "check the cost math for NaN/inf leaks; the selection "
    "prices an unpriced candidate at 1e9",
    "FLOW-M002": "build rows through add_exactly_one / add_at_most_one, "
    "which check their variables",
}


def _finding(rule: str, where: str, message: str) -> Finding:
    return Finding(
        rule=rule,
        severity=Severity.ERROR,
        path=where,
        line=0,
        message=message,
        hint=_HINTS.get(rule, ""),
    )


# ---------------------------------------------------------- accounting


def check_accounting(router) -> list[Finding]:
    """FLOW-A001/A002 over a :class:`repro.groute.GlobalRouter`."""
    where = f"design:{router.design.name}"
    findings = [
        _finding("FLOW-A001", where, message)
        for message in router.accounting_errors()
    ]
    for layer, usage in enumerate(router.graph.wire_usage):
        if usage.size and float(usage.min()) < 0:
            findings.append(
                _finding(
                    "FLOW-A002",
                    where,
                    f"negative wire usage on layer {layer} "
                    f"(min={float(usage.min()):g})",
                )
            )
    for layer, usage in enumerate(router.graph.via_usage):
        if usage.size and int(usage.min()) < 0:
            findings.append(
                _finding(
                    "FLOW-A002",
                    where,
                    f"negative via usage below layer {layer + 1} "
                    f"(min={int(usage.min())})",
                )
            )
    return findings


# -------------------------------------------------------- connectivity


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Node, Node] = {}

    def find(self, node: Node) -> Node:
        root = self.parent.setdefault(node, node)
        while root != self.parent[root]:
            root = self.parent[root]
        while self.parent[node] != root:  # path compression
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a: Node, b: Node) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _edge_valid(graph, edge: int) -> bool:
    return 0 <= edge < graph.num_edges


def check_connectivity(router) -> list[Finding]:
    """FLOW-C001/C002/C004 over every committed net route."""
    findings: list[Finding] = []
    graph = router.graph
    for net_name in sorted(router.routes):
        route = router.routes[net_name]
        where = f"net:{net_name}"
        uf = _UnionFind()
        bad_edges = 0
        for edge in sorted(route.edges):
            if not _edge_valid(graph, edge):
                bad_edges += 1
                continue
            a, b = graph.endpoints(edge)
            uf.union(a, b)
        if bad_edges:
            findings.append(
                _finding(
                    "FLOW-C004",
                    where,
                    f"{bad_edges} route edge(s) outside the routing graph",
                )
            )
        terminals = list(route.terminals)
        if not terminals:
            continue
        for node in terminals:
            uf.find(node)  # make isolated terminals their own component
        roots = {uf.find(t) for t in terminals}
        if len(roots) > 1:
            findings.append(
                _finding(
                    "FLOW-C001",
                    where,
                    f"terminals split into {len(roots)} components "
                    f"({len(terminals)} terminals, "
                    f"{len(route.edges)} edges)",
                )
            )
        # Components formed purely by edges that reach no terminal are
        # dangling wire: they consume capacity but connect nothing.
        terminal_roots = {uf.find(t) for t in terminals}
        dangling = {
            uf.find(node)
            for node in uf.parent
            if uf.find(node) not in terminal_roots
        }
        if dangling:
            findings.append(
                _finding(
                    "FLOW-C002",
                    where,
                    f"{len(dangling)} route component(s) touch no terminal",
                )
            )
    return findings


def check_guide_coverage(router, guides=None) -> list[Finding]:
    """FLOW-C003: every routed node must fall inside a same-layer guide.

    ``guides`` defaults to freshly-emitted ones (which cover by
    construction); pass a stale/externally-loaded guide set to audit it
    against the current routes.
    """
    if guides is None:
        guides = router.guides()
    findings: list[Finding] = []
    grid = router.grid
    graph = router.graph
    for net_name in sorted(router.routes):
        route = router.routes[net_name]
        rects_by_layer: dict[int, list] = {}
        for g in guides.get(net_name, ()):
            rects_by_layer.setdefault(g.layer, []).append(g.rect)
        uncovered = 0
        nodes: set[Node] = set(route.terminals)
        for edge in route.edges:
            if not _edge_valid(graph, edge):
                continue  # FLOW-C004's problem, not coverage's
            a, b = graph.endpoints(edge)
            nodes.add(a)
            nodes.add(b)
        for layer, gx, gy in sorted(nodes):
            center = grid.rect_of(gx, gy).center
            if not any(
                r.contains_point(center) for r in rects_by_layer.get(layer, ())
            ):
                uncovered += 1
        if uncovered:
            findings.append(
                _finding(
                    "FLOW-C003",
                    f"net:{net_name}",
                    f"{uncovered} routed node(s) not covered by guides",
                )
            )
    return findings


# ------------------------------------------------------------ legality


def check_placement(design: Design) -> list[Finding]:
    """FLOW-L001: one finding per non-empty legality category."""
    report = check_legality(design)
    where = f"design:{design.name}"
    findings: list[Finding] = []
    categories = (
        ("out_of_die", report.out_of_die),
        ("off_site", report.off_site),
        ("off_row", report.off_row),
        ("bad_orient", report.bad_orient),
        ("overlaps", report.overlaps),
        ("blocked", report.blocked),
    )
    for category, items in categories:
        if not items:
            continue
        sample = items[0]
        label = " & ".join(sample) if isinstance(sample, tuple) else sample
        findings.append(
            _finding(
                "FLOW-L001",
                where,
                f"{len(items)} {category} violation(s), e.g. {label}",
            )
        )
    return findings


# ----------------------------------------------------------------- ILP


def check_model(model) -> list[Finding]:
    """FLOW-M001/M002 over a :class:`repro.ilp.IlpModel`: a non-finite
    cost; an empty row or one naming a variable out of range."""
    findings = [
        _finding("FLOW-M001", "ilp", f"variable {v}: non-finite cost {cost!r}")
        for v, cost in enumerate(model.costs)
        if not math.isfinite(cost)
    ]
    for i, row in enumerate(model.rows):
        if not row:
            problem = "no terms"
        elif not all(0 <= v < model.num_variables for v in row):
            problem = "variable index out of range"
        else:
            continue
        findings.append(_finding("FLOW-M002", "ilp", f"row {i}: {problem}"))
    return findings


# ------------------------------------------------------------- driver


def check_flow_state(
    design: Design,
    router,
    *,
    guides=None,
    model=None,
) -> list[Finding]:
    """Run every applicable invariant check; returns sorted findings.

    Audits placement legality and the ``router``'s accounting,
    connectivity and guide coverage; add a ``model`` for ILP shape.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    findings: list[Finding] = []
    with tracer.span("analyze.check", design=design.name):
        findings.extend(check_placement(design))
        findings.extend(check_accounting(router))
        findings.extend(check_connectivity(router))
        findings.extend(check_guide_coverage(router, guides))
        if model is not None:
            findings.extend(check_model(model))
        metrics.count("analyze.invariant_findings", len(findings))
        if findings:
            metrics.count("analyze.invariant_violations")
    findings.sort(key=Finding.sort_key)
    return findings
