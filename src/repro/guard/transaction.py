"""Transactional CR&P iterations: snapshot, verify, roll back.

CR&P's core promise is monotone improvement — an iteration must never
leave the design worse or inconsistent.  Before the Update-Database
step, :meth:`IterationTransaction.capture` snapshots everything the
step may touch: the positions of every cell any chosen candidate moves,
the committed routes of every net those cells drive, and the move
history.  After the step, :func:`iteration_violations` checks three
invariants:

1. the placement is still legal (:func:`repro.db.check_legality`),
2. GCell demand accounting matches the committed routes
   (:meth:`GlobalRouter.accounting_errors`),
3. total route cost has not increased by more than
   :data:`COST_TOLERANCE`.

Any violation — or any exception raised mid-update — triggers
:meth:`IterationTransaction.rollback`, which restores positions,
routes, and history exactly, and counts ``guard.rollbacks``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.guard.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.db import Design
    from repro.groute import GlobalRouter


#: relative total-route-cost increase tolerated before rolling back
COST_TOLERANCE = 0.02


class IterationTransaction:
    """A restorable snapshot of the state one Update-Database step mutates."""

    __slots__ = ("design", "router", "cells", "routes", "moved_history")

    def __init__(self, design: "Design", router: "GlobalRouter") -> None:
        self.design = design
        self.router = router
        self.cells: dict[str, tuple[int, int, object]] = {}
        self.routes: dict[str, object | None] = {}
        self.moved_history: set[str] = set()

    @classmethod
    def capture(
        cls, design: "Design", router: "GlobalRouter", chosen: dict
    ) -> "IterationTransaction":
        """Snapshot ahead of ``apply_moves(design, router, chosen)``."""
        txn = cls(design, router)
        touched: set[str] = set()
        for candidate in chosen.values():
            if candidate.is_current:
                continue
            touched.add(candidate.cell)
            touched.update(candidate.conflict_moves)
        for name in sorted(touched):
            cell = design.cells[name]
            txn.cells[name] = (cell.x, cell.y, cell.orient)
        for net_name in router.dirty_nets_for_cells(sorted(touched)):
            txn.routes[net_name] = router.copy_route(net_name)
        txn.moved_history = set(design.moved_history)
        return txn

    def rollback(self) -> None:
        """Restore every snapshotted cell, route, and the move history."""
        for name, (x, y, orient) in self.cells.items():
            cell = self.design.cells[name]
            if (cell.x, cell.y, cell.orient) != (x, y, orient):
                self.design.move_cell(name, x, y, orient)
        for net_name, route in self.routes.items():
            self.router.restore_route(net_name, route)
        self.design.moved_history = set(self.moved_history)
        # restore_route already notifies the cost field edge-by-edge;
        # the full invalidation guards against callers that mutated
        # usage arrays behind the graph's back before rolling back.
        self.router.field.note_all()


def iteration_violations(
    design: "Design",
    router: "GlobalRouter",
    pre_cost: float,
) -> list[str]:
    """Post-iteration invariant check; empty list means the step stands.

    The ``crp.invariants`` fault site lets tests force a violation (and
    thereby prove the rollback path) without perturbing real state.
    """
    violations: list[str] = []
    forced = fault_point("crp.invariants")
    if forced is not None:
        violations.append(str(forced))
    from repro.db import check_legality

    report = check_legality(design)
    if not report.is_legal:
        violations.append(f"illegal placement: {report.summary()}")
    violations.extend(router.accounting_errors())
    post_cost = router.total_route_cost()
    if post_cost > pre_cost * (1.0 + COST_TOLERANCE) + 1e-9:
        violations.append(
            f"route cost regressed {pre_cost:.3f} -> {post_cost:.3f} "
            f"(tolerance {COST_TOLERANCE:.1%})"
        )
    return violations
