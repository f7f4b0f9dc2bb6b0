"""Timing wrappers around each layer's public entry points, installed from outside.

Nothing under ``src/`` is edited and the program's own ``repro.obs``
spans are not read: :func:`install` rebinds a public name where it is
*called from* (a module global for ``from x import f`` bindings, a class
attribute for methods) to a wrapper that times the call and, where the
boundary carries one, takes a count from the arguments or the result.

Spans are aggregated by name in memory: total seconds, self seconds
(total minus the part covered by wrapped callees), calls and the longest
call.  Several bindings may share one span name (``build_rsmt`` is bound
in three modules).  A binding that no longer exists raises ``KeyError``
at install time, and :mod:`selftest` checks every binding fires, so a
renamed or inlined function cannot silently zero a metric.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Trace:
    """Aggregated spans and counts of the flows run since :meth:`reset`."""

    def __init__(self) -> None:
        #: (owner, attribute) -> calls since install; never reset (liveness)
        self.fired: dict[tuple[str, str], int] = {}
        self.spans: list[str] = []  # wrapped span names, in table order
        self._stack: list[float] = []  # wrapped-callee seconds of each open span
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.longest: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: seconds inside spans that no other span encloses
        self.top_seconds = 0.0

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Rebind ``owner.attr`` to a timed wrapper recording under ``span``.

        ``count(counts, args, kwargs, result)`` runs after a call that
        returned, outside the timed interval.
        """
        raw = vars(owner)[attr]  # KeyError: the name moved; fix the table below
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        site = (owner.__name__, attr)
        self.fired[site] = 0
        if span not in self.spans:
            self.spans.append(span)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = stack.pop()
                self.seconds[span] += took
                self.self_seconds[span] += took - inner
                self.calls[span] += 1
                if took > self.longest[span]:
                    self.longest[span] = took
                if stack:
                    stack[-1] += took
                else:
                    self.top_seconds += took
                self.fired[site] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def metrics(self, flow_wall_s: float) -> dict[str, float]:
        """Every per-layer number of the flows since :meth:`reset`.

        ``<span>_s``, ``<span>_self_s``, ``<span>_calls`` and
        ``<span>_max_s`` for each span, the boundary counts, and
        ``flow.other_s``: the flow wall no top-level span covers.
        """
        out: dict[str, float] = {}
        for span in self.spans:
            out[f"{span}_s"] = self.seconds[span]
            out[f"{span}_self_s"] = self.self_seconds[span]
            out[f"{span}_calls"] = self.calls[span]
            out[f"{span}_max_s"] = self.longest[span]
        for name in COUNTS:
            out[name] = self.counts[name]
        candidates = self.counts["core.candidates"]
        out["core.moved_per_candidate"] = (
            self.counts["core.moved_cells"] / candidates if candidates else 0.0
        )
        out["flow.other_s"] = flow_wall_s - self.top_seconds
        return out


def _count_reroute(counts, args, kwargs, result) -> None:
    nets = args[1] if len(args) > 1 else kwargs["net_names"]
    counts["groute.reroute_nets_nets"] += len(nets)


def _count_iteration(counts, args, kwargs, stats) -> None:
    counts["core.iterations"] += 1
    counts["core.critical_cells"] += stats.num_critical
    counts["core.candidates"] += stats.num_candidates
    counts["core.moved_cells"] += stats.num_moved
    counts["core.rerouted_nets"] += stats.num_rerouted
    counts["core.rollbacks"] += stats.rolled_back


def _count_legalized(counts, args, kwargs, candidates) -> None:
    counts["legalizer.candidates_out"] += len(candidates)


def _count_baseline(counts, args, kwargs, result) -> None:
    counts["baseline.moved_cells"] += result.moved_cells
    counts["baseline.rerouted_nets"] += result.rerouted_nets


def _count_drvs(counts, args, kwargs, result) -> None:
    kinds = result.drv_counts()
    short, min_area = kinds.get("short", 0), kinds.get("min_area", 0)
    counts["droute.drvs_short"] += short
    counts["droute.drvs_min_area"] += min_area
    counts["droute.drvs_other"] += result.num_drvs - short - min_area


COUNTS = (
    "groute.reroute_nets_nets",
    "core.iterations",
    "core.critical_cells",
    "core.candidates",
    "core.moved_cells",
    "core.rerouted_nets",
    "core.rollbacks",
    "legalizer.candidates_out",
    "baseline.moved_cells",
    "baseline.rerouted_nets",
    "droute.drvs_short",
    "droute.drvs_min_area",
    "droute.drvs_other",
)


def _bindings():
    """(owner, attribute, span, count hook) for every wrapped entry point."""
    import repro.baseline.fontana as fontana
    import repro.ckpt as ckpt
    import repro.core.crp as crp
    import repro.core.estimate as estimate
    import repro.core.fastecc as fastecc
    import repro.core.select as select
    import repro.flow.pipeline as pipeline
    import repro.groute.router as groute
    import repro.legalizer.window as window

    return (
        (groute.GlobalRouter, "route_all", "groute.route_all", None),
        (groute.GlobalRouter, "improve", "groute.improve", None),
        (groute.GlobalRouter, "reroute_nets", "groute.reroute_nets", _count_reroute),
        (groute.GlobalRouter, "guides", "groute.guides", None),
        (groute, "build_rsmt", "flute.build_rsmt", None),
        (estimate, "build_rsmt", "flute.build_rsmt", None),
        (fastecc, "build_rsmt", "flute.build_rsmt", None),
        (crp.CrpFramework, "run_iteration", "core.iteration", _count_iteration),
        (crp, "label_critical_cells", "core.label", None),
        (crp, "generate_candidates", "core.gcp", None),
        (crp, "estimate_candidate_cost", "core.ecc", None),
        (crp, "select_moves", "core.select", None),
        (crp, "apply_moves", "core.update", None),
        (window.WindowLegalizer, "run", "legalizer.run", _count_legalized),
        (window, "solve", "ilp.window_solve", None),
        (select, "solve", "ilp.select_solve", None),
        (fontana, "solve", "ilp.fontana_solve", None),
        (crp.IterationTransaction, "capture", "guard.txn", None),
        (crp.IterationTransaction, "rollback", "guard.txn", None),
        (crp, "iteration_violations", "guard.txn", None),
        (fontana.FontanaBaseline, "run", "baseline.run", _count_baseline),
        (pipeline.DetailedRouter, "route_all", "droute.route_all", _count_drvs),
        (pipeline, "evaluate", "evalmetrics.evaluate", None),
        (pipeline, "check_legality", "db.check_legality", None),
        (ckpt, "routes_digest", "ckpt.digest", None),
        (ckpt, "positions_digest", "ckpt.digest", None),
    )



def install() -> Trace:
    """Wrap every binding; the returned trace records from now on."""
    trace = Trace()
    for owner, attr, span, count in _bindings():
        trace.wrap(owner, attr, span, count)
    return trace
