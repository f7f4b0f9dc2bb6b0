"""Pure-Python branch-and-bound over LP relaxations.

A fallback exact MILP solver whose LP relaxations go to HiGHS (through
:func:`repro.ilp.scipy_backend.run_highs`, so no ``scipy.optimize``
either) while the branching, bounding and incumbent are its own.  Used
when the HiGHS MIP solve fails and as an independent cross-check of it
in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.guard.deadline import check_deadline
from repro.ilp.model import IlpModel
from repro.ilp.scipy_backend import milp_arrays, run_highs
from repro.ilp.solution import Solution, SolveStatus


def solve_bnb(model: IlpModel, max_nodes: int = 20000) -> Solution:
    """Best-first branch-and-bound with LP-relaxation bounding."""
    n = model.num_variables
    if n == 0:
        return Solution(status=SolveStatus.OPTIMAL, objective=0.0, backend="bnb")

    cost, base_lb, base_ub, *matrix, _ = milp_arrays(model)

    incumbent: np.ndarray | None = None
    incumbent_obj = float("inf")
    # stack of (lower bounds, upper bounds) per node
    stack: list[tuple[np.ndarray, np.ndarray]] = [(base_lb, base_ub)]
    nodes = 0

    while stack and nodes < max_nodes:
        if nodes % 128 == 0:
            check_deadline("ilp.bnb")
        lb, ub = stack.pop()
        nodes += 1
        relax = _solve_lp(cost, lb, ub, matrix)
        if relax is None:
            continue
        obj, x = relax
        if obj >= incumbent_obj - 1e-9:
            continue
        frac_index = _most_fractional(model, x)
        if frac_index is None:
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent = x.copy()
            continue
        floor_val = math.floor(x[frac_index] + 1e-9)
        up_lb = lb.copy()
        up_lb[frac_index] = floor_val + 1
        down_ub = ub.copy()
        down_ub[frac_index] = floor_val
        # Explore the branch nearer the fractional value first.
        if x[frac_index] - floor_val > 0.5:
            stack.append((lb, down_ub))
            stack.append((up_lb, ub))
        else:
            stack.append((up_lb, ub))
            stack.append((lb, down_ub))

    if incumbent is None:
        return Solution(status=SolveStatus.INFEASIBLE, backend="bnb")
    values = {
        v.name: (round(incumbent[v.index]) if v.integral else float(incumbent[v.index]))
        for v in model.variables
    }
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(incumbent_obj),
        values=values,
        backend="bnb",
    )


def _solve_lp(cost, lb, ub, matrix):
    if np.any(lb > ub + 1e-12):
        return None
    _, objective, x = run_highs(cost, lb, ub, *matrix)
    if x is None:
        return None
    return objective, np.asarray(x)


def _most_fractional(model: IlpModel, x: np.ndarray) -> int | None:
    best = None
    best_frac = 1e-6
    for v in model.variables:
        if not v.integral:
            continue
        frac = abs(x[v.index] - round(x[v.index]))
        if frac > best_frac:
            best_frac = frac
            best = v.index
    return best
