"""The CR&P iteration driver.

Runs the five-step loop ``k`` times between global routing and detailed
routing.  Each step runs inside a ``repro.obs`` span (``crp.label``,
``crp.GCP``, ``crp.ECC``, ``crp.ILP``, ``crp.UD`` under a
``crp.iteration`` parent); those spans are the only record of the
steps' time, and the Fig. 3 breakdown (``repro.flow.runtime``) reads
them off the flow's trace.

Every iteration runs as a transaction (``repro.guard``): the Update-Database
step runs against a snapshot of the cells and routes it may touch, and
any exception or post-step invariant violation (illegal placement,
demand-accounting drift, route cost regressing beyond
``repro.guard.transaction.COST_TOLERANCE``) rolls the iteration back —
the design is never left worse than before the iteration started.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.guard import IterationTransaction, iteration_violations
from repro.obs import get_metrics, get_tracer

from repro.db import Design
from repro.grid import CostField
from repro.groute import GlobalRouter
from repro.core.candidates import generate_candidates
from repro.core.config import CrpConfig
from repro.core.estimate import estimate_candidate_cost
from repro.core.fastecc import EccCache
from repro.core.labeling import label_critical_cells
from repro.core.select import select_moves
from repro.core.update import UpdateStats, apply_moves


@dataclass(slots=True)
class IterationStats:
    """Numbers of one CR&P iteration; its timings are its spans."""

    iteration: int
    num_critical: int = 0
    num_candidates: int = 0
    num_moved: int = 0
    num_rerouted: int = 0
    displacement: int = 0
    #: True when the guard rolled this iteration back
    rolled_back: bool = False
    #: invariant violations (or the exception) that caused the rollback
    rollback_reasons: list[str] = field(default_factory=list)


@dataclass(slots=True)
class CrpResult:
    """Aggregate outcome of a CR&P run."""

    iterations: list[IterationStats] = field(default_factory=list)

    @property
    def total_moved(self) -> int:
        return sum(s.num_moved for s in self.iterations)

    @property
    def rollbacks(self) -> int:
        return sum(1 for s in self.iterations if s.rolled_back)


class CrpFramework:
    """Co-operation between Routing and Placement.

    Construct with a design and a *routed* :class:`GlobalRouter`
    (``route_all`` already run), then call :meth:`run`.
    """

    def __init__(
        self,
        design: Design,
        router: GlobalRouter,
        config: CrpConfig | None = None,
    ) -> None:
        self.design = design
        self.router = router
        self.config = config or CrpConfig()
        self.config.validate()
        self._rng = random.Random(self.config.seed)
        # Ablation support: estimate candidate costs congestion-blind
        # (use_penalty=False) while the router itself keeps its field.
        self._estimate_field = (
            router.field
            if self.config.use_penalty
            else CostField(router.graph, use_penalty=False)
        )

    def run(self, iterations: int = 1) -> CrpResult:
        """Execute ``k`` CR&P iterations (the paper reports k=1 and 10)."""
        result = CrpResult()
        for k in range(iterations):
            result.iterations.append(self.run_iteration(k))
        return result

    def run_iteration(self, index: int = 0) -> IterationStats:
        """One pass of the five CR&P steps, each under its own span."""
        stats = IterationStats(iteration=index)
        config = self.config
        tracer = get_tracer()
        with tracer.span("crp.iteration", k=index):
            with tracer.span("crp.label"):
                # One snapshot of the routes' costs: labeling orders cells
                # by it, and the guard compares its total with the total
                # after UD.
                net_costs = self.router.net_costs()
                pre_cost = sum(net_costs.values())
                critical = label_critical_cells(
                    self.design, net_costs, config, self._rng
                )
            stats.num_critical = len(critical)

            with tracer.span("crp.GCP"):
                candidates = generate_candidates(self.design, critical, config)
            stats.num_candidates = sum(len(c) for c in candidates.values())

            with tracer.span("crp.ECC"):
                flat = [
                    candidate
                    for cell_candidates in candidates.values()
                    for candidate in cell_candidates
                ]
                # Iteration-scoped: ECC is a pure read of routing
                # state, so nothing invalidates the memo within it —
                # and every segment of the iteration is priced in
                # one batch; the per-candidate calls then only sum.
                cache = EccCache(self.router, self._estimate_field)
                cache.prefetch(self.design, flat)
                for candidate in flat:
                    candidate.route_cost = estimate_candidate_cost(
                        self.design, self.router, candidate, cache
                    )

            with tracer.span("crp.ILP"):
                chosen = select_moves(self.design, candidates)

            with tracer.span("crp.UD"):
                update = self._apply_update(chosen, pre_cost, stats)
        stats.num_moved = len(update.moved_cells)
        stats.num_rerouted = len(update.rerouted_nets)
        stats.displacement = update.total_displacement

        metrics = get_metrics()
        if stats.rolled_back:
            metrics.count("guard.rollbacks")
        metrics.count("crp.iterations")
        metrics.count("crp.critical_cells", stats.num_critical)
        metrics.count("crp.candidates", stats.num_candidates)
        metrics.count("crp.cells_moved", stats.num_moved)
        metrics.count("crp.rerouted_nets", stats.num_rerouted)
        metrics.observe("crp.displacement_dbu", stats.displacement)
        return stats

    def _apply_update(
        self,
        chosen: dict,
        pre_cost: float,
        stats: IterationStats,
    ) -> UpdateStats:
        """Run Update-Database inside an :class:`IterationTransaction`.

        An exception mid-update or a post-update invariant violation
        restores the snapshot and reports an empty update, so a bad
        iteration is a no-op rather than a corruption.
        """
        txn = IterationTransaction.capture(self.design, self.router, chosen)
        try:
            update = apply_moves(self.design, self.router, chosen)
        except Exception as exc:  # repro: noqa:REPRO-G002 — roll back, then degrade to an empty update
            txn.rollback()
            stats.rolled_back = True
            stats.rollback_reasons = [f"{type(exc).__name__}: {exc}"]
            return UpdateStats()
        violations = iteration_violations(self.design, self.router, pre_cost)
        if violations:
            txn.rollback()
            stats.rolled_back = True
            stats.rollback_reasons = violations
            return UpdateStats()
        return update
