"""Enumeration of every 0/1 assignment (reference for ``repro.ilp.solve``).

Exact but exponential, so it only takes all-binary models of at most
:data:`MAX_EXHAUSTIVE_VARS` variables.
"""

from __future__ import annotations

from itertools import product

from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution, SolveStatus

MAX_EXHAUSTIVE_VARS = 22


def solve_exhaustive(model: IlpModel) -> Solution:
    """The cheapest feasible 0/1 assignment, first in enumeration order."""
    if not all(
        v.integral and (v.lower, v.upper) == (0.0, 1.0) for v in model.variables
    ):
        raise ValueError("exhaustive enumeration requires an all-binary model")
    n = model.num_variables
    if n > MAX_EXHAUSTIVE_VARS:
        raise ValueError(f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_VARS} vars")
    best: list[float] | None = None
    best_obj = float("inf")
    for assignment in product((0.0, 1.0), repeat=n):
        values = list(assignment)
        if not model.is_feasible(values):
            continue
        obj = sum(v.cost * values[v.index] for v in model.variables)
        if obj < best_obj:
            best_obj = obj
            best = values
    if best is None:
        return Solution(status=SolveStatus.INFEASIBLE)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=best_obj,
        values={v.name: best[v.index] for v in model.variables},
    )
