"""Enumeration of every 0/1 assignment (reference for ``repro.ilp.solve``).

Exact but exponential, so it only takes models of at most
:data:`MAX_EXHAUSTIVE_VARS` variables.
"""

from __future__ import annotations

from itertools import product

from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution, SolveStatus

MAX_EXHAUSTIVE_VARS = 22


def is_feasible(model: IlpModel, values: list[int]) -> bool:
    """Whether the 0/1 ``values`` keep every row of ``model``."""
    for row, exact in zip(model.rows, model.exact):
        total = sum(values[var] for var in row)
        if total > 1 or (exact and total != 1):
            return False
    return True


def solve_exhaustive(model: IlpModel) -> Solution:
    """The cheapest feasible 0/1 assignment, first in enumeration order."""
    n = model.num_variables
    if n > MAX_EXHAUSTIVE_VARS:
        raise ValueError(f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_VARS} vars")
    best: tuple[int, ...] | None = None
    best_obj = float("inf")
    for values in product((0, 1), repeat=n):
        if not is_feasible(model, values):
            continue
        obj = sum(cost * x for cost, x in zip(model.costs, values))
        if obj < best_obj:
            best_obj = obj
            best = values
    if best is None:
        return Solution(status=SolveStatus.INFEASIBLE)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=best_obj,
        chosen=[var for var, x in enumerate(best) if x],
    )
