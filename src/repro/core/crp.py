"""The CR&P iteration driver.

Runs the five-step loop ``k`` times between global routing and detailed
routing.  Each step runs inside a ``repro.obs`` span (``crp.label``,
``crp.GCP``, ``crp.ECC``, ``crp.ILP``, ``crp.UD`` under a
``crp.iteration`` parent), and ``IterationStats.runtime`` is populated
from those span wall times — one source of truth for the Fig. 3
runtime breakdown (GCP / ECC / ILP / UD).

Iterations are transactional (``repro.guard``): the Update-Database
step runs against a snapshot of the cells and routes it may touch, and
any exception or post-step invariant violation (illegal placement,
demand-accounting drift, route cost regressing beyond
``GuardPolicy.cost_tolerance``) rolls the iteration back — the design
is never left worse than before the iteration started.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.guard import (
    DeadlineExceeded,
    GuardPolicy,
    IterationTransaction,
    iteration_violations,
)
from repro.obs import ensure_tracer, get_metrics

from repro.db import Design
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
    """Numbers and timings of one CR&P iteration."""

    iteration: int
    num_critical: int = 0
    num_candidates: int = 0
    num_moved: int = 0
    num_rerouted: int = 0
    displacement: int = 0
    #: per-step wall clock (seconds); keys are the Fig. 3 labels
    runtime: dict[str, float] = field(default_factory=dict)
    #: True when the guard rolled this iteration back
    rolled_back: bool = False
    #: invariant violations (or the exception) that caused the rollback
    rollback_reasons: list[str] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(self.runtime.values())


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

    @property
    def total_runtime(self) -> float:
        return sum(s.total_runtime for s in self.iterations)

    def runtime_breakdown(self) -> dict[str, float]:
        """Summed per-step runtime over all iterations (Fig. 3 input)."""
        totals: dict[str, float] = {}
        for stats in self.iterations:
            for step, seconds in stats.runtime.items():
                totals[step] = totals.get(step, 0.0) + seconds
        return totals


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
        guard: GuardPolicy | None = None,
    ) -> None:
        self.design = design
        self.router = router
        self.config = config or CrpConfig()
        self.config.validate()
        self.guard = guard or GuardPolicy()
        self._rng = random.Random(self.config.seed)
        # O(dirty-nets) route-cost accounting: router state (it listens
        # to commit and rip-up) that only the CR&P loop pays for.
        router.enable_incremental_cost()
        # Ablation support: estimate candidate costs congestion-blind
        # (use_penalty=False) while the router itself keeps its model.
        # The cost field must be swapped together with the scalar model,
        # otherwise the pattern router would keep pricing with the
        # penalty-on maps.
        self._estimate_cost_model = router.cost
        self._estimate_field = router.field
        if not self.config.use_penalty:
            from repro.grid import CostField, CostModel, CostParams

            params = CostParams(
                wire_weight=router.cost.params.wire_weight,
                via_weight=router.cost.params.via_weight,
                slope=router.cost.params.slope,
                use_penalty=False,
            )
            self._estimate_cost_model = CostModel(router.graph, params)
            self._estimate_field = CostField(router.graph, params)

    def run(
        self,
        iterations: int = 1,
        start: int = 0,
        on_iteration=None,
    ) -> CrpResult:
        """Execute ``k`` CR&P iterations (the paper reports k=1 and 10).

        CR&P is an improvement loop, so a wall-clock deadline expiring
        mid-run stops iterating (counting ``crp.deadline_stops``) and
        returns the iterations that completed, rather than raising.

        ``start`` skips the first iterations (checkpoint resume: the
        state they produced was already restored), and ``on_iteration``
        — called as ``on_iteration(index, stats)`` after each completed
        iteration — is where ``repro.ckpt`` writes its iteration-
        boundary checkpoints.
        """
        result = CrpResult()
        for k in range(start, iterations):
            try:
                result.iterations.append(self.run_iteration(k))
            except DeadlineExceeded:
                get_metrics().count("crp.deadline_stops")
                break
            if on_iteration is not None:
                on_iteration(k, result.iterations[-1])
        return result

    # ------------------------------------------------------ checkpoint hooks

    def rng_state(self) -> object:
        """The simulated-annealing RNG state (checkpoint payload)."""
        return self._rng.getstate()

    def set_rng_state(self, state: object) -> None:
        """Restore the RNG mid-stream so resumed labeling draws the
        exact numbers the interrupted run would have drawn."""
        self._rng.setstate(state)

    def run_until_converged(
        self,
        max_iterations: int = 20,
        min_gain: float = 0.001,
        patience: int = 2,
    ) -> CrpResult:
        """Iterate until the total route cost stops improving.

        The paper notes the loop "can be continued to satisfy expected
        requirements"; this is that mode.  Stops after ``patience``
        consecutive iterations whose relative total-route-cost gain is
        below ``min_gain``, or at ``max_iterations``.
        """
        result = CrpResult()
        stale = 0
        # One total per pass: the post-iteration total doubles as the
        # next iteration's guard pre-cost (nothing mutates in between),
        # so each pass pays a single scan instead of two.
        previous = self._total_route_cost()
        for k in range(max_iterations):
            try:
                result.iterations.append(self.run_iteration(k, pre_cost=previous))
            except DeadlineExceeded:
                get_metrics().count("crp.deadline_stops")
                break
            current = self._total_route_cost()
            gain = (previous - current) / previous if previous > 0 else 0.0
            previous = current
            if gain < min_gain:
                stale += 1
                if stale >= patience:
                    break
            else:
                stale = 0
        return result

    def _total_route_cost(self) -> float:
        # Canonical-order re-sum keeps the total bit-identical to the
        # uncached scan; with the NetCostCache on, only dirty nets pay
        # a fresh path_cost walk.
        return self.router.total_route_cost()

    def run_iteration(
        self, index: int = 0, pre_cost: float | None = None
    ) -> IterationStats:
        """One pass of the five CR&P steps, each under its own span.

        ``pre_cost`` lets a driver that already knows the current total
        route cost (``run_until_converged`` measures it after every
        iteration) hand it in instead of paying a second scan.
        """
        stats = IterationStats(iteration=index)
        config = self.config
        if pre_cost is None:
            pre_cost = (
                self._total_route_cost() if self.guard.transactional else 0.0
            )
        with ensure_tracer() as tracer, tracer.span(
            "crp.iteration", k=index
        ):
            with tracer.span("crp.label") as sp:
                critical = label_critical_cells(
                    self.design, self.router, config, self._rng
                )
            stats.runtime["label"] = sp.wall_s
            stats.num_critical = len(critical)

            with tracer.span("crp.GCP") as sp:
                candidates = generate_candidates(self.design, critical, config)
            stats.runtime["GCP"] = sp.wall_s
            stats.num_candidates = sum(len(c) for c in candidates.values())

            with tracer.span("crp.ECC") as sp:
                flat = [
                    candidate
                    for cell_candidates in candidates.values()
                    for candidate in cell_candidates
                ]
                # Iteration-scoped: ECC is a pure read of routing
                # state, so nothing invalidates the memo within it —
                # and every segment of the iteration is priced in
                # one batch; the per-candidate calls then only sum.
                cache = EccCache()
                with self.router.pattern3d.using(
                    self._estimate_cost_model, self._estimate_field
                ):
                    cache.prefetch(self.design, self.router, flat)
                    for candidate in flat:
                        candidate.route_cost = estimate_candidate_cost(
                            self.design,
                            self.router,
                            candidate,
                            cache=cache,
                        )
                cache.publish_metrics()
            stats.runtime["ECC"] = sp.wall_s

            with tracer.span("crp.ILP") as sp:
                chosen = select_moves(
                    self.design,
                    candidates,
                    backend=config.ilp_backend,
                    budget_s=config.ilp_budget_s,
                )
            stats.runtime["ILP"] = sp.wall_s

            with tracer.span("crp.UD") as sp:
                update = self._apply_update(chosen, pre_cost, stats)
            stats.runtime["UD"] = sp.wall_s
        stats.num_moved = len(update.moved_cells)
        stats.num_rerouted = len(update.rerouted_nets)
        stats.displacement = update.total_displacement

        metrics = get_metrics()
        self.router.cost_cache.publish_metrics()
        if self._estimate_field is not self.router.field:
            # reroute_nets published the router's own field
            self._estimate_field.publish_metrics()
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
        """Run Update-Database transactionally (unless the guard is off).

        An exception mid-update or a post-update invariant violation
        restores the snapshot and reports an empty update, so a bad
        iteration is a no-op rather than a corruption.
        """
        if not self.guard.transactional:
            return apply_moves(self.design, self.router, chosen)
        txn = IterationTransaction.capture(self.design, self.router, chosen)
        try:
            update = apply_moves(self.design, self.router, chosen)
        except DeadlineExceeded:
            # Restore consistency, then let the driver stop the loop.
            txn.rollback()
            stats.rolled_back = True
            stats.rollback_reasons = ["deadline expired mid-update"]
            raise
        except Exception as exc:  # noqa: BLE001 — rollback then degrade
            txn.rollback()
            stats.rolled_back = True
            stats.rollback_reasons = [f"{type(exc).__name__}: {exc}"]
            return UpdateStats()
        violations = iteration_violations(
            self.design, self.router, pre_cost, self.guard.cost_tolerance
        )
        if violations:
            txn.rollback()
            stats.rolled_back = True
            stats.rollback_reasons = violations
            return UpdateStats()
        return update
