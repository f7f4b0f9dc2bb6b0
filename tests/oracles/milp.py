"""HiGHS through :func:`scipy.optimize.milp` (reference for
``repro.ilp.scipy_backend.solve_scipy``).

This is the backend as it was before it called scipy's HiGHS extension
directly: the model goes through ``milp``'s public arguments and its
input validation.  :func:`milp_args` gives those arguments, so a test can
also compare the arrays ``milp`` builds from them with
``repro.ilp.scipy_backend.milp_arrays``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.ilp.model import IlpModel, Sense
from repro.ilp.solution import Solution, SolveStatus


def milp_args(model: IlpModel) -> dict:
    """The keyword arguments the backend passed to ``milp`` for ``model``."""
    n = model.num_variables
    cost = np.array([v.cost for v in model.variables])
    integrality = np.array(
        [1 if v.integral else 0 for v in model.variables], dtype=np.int8
    )
    bounds = Bounds(
        lb=np.array([v.lower for v in model.variables]),
        ub=np.array([v.upper for v in model.variables]),
    )
    constraints = []
    if model.constraints:
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        lb = np.full(model.num_constraints, -np.inf)
        ub = np.full(model.num_constraints, np.inf)
        for i, c in enumerate(model.constraints):
            for t in c.terms:
                rows.append(i)
                cols.append(t.var)
                data.append(t.coeff)
            if c.sense is Sense.LE:
                ub[i] = c.rhs
            elif c.sense is Sense.GE:
                lb[i] = c.rhs
            else:
                lb[i] = c.rhs
                ub[i] = c.rhs
        matrix = csr_matrix(
            (data, (rows, cols)), shape=(model.num_constraints, n)
        )
        constraints = [LinearConstraint(matrix, lb, ub)]
    return {
        "c": cost,
        "constraints": constraints,
        "integrality": integrality,
        "bounds": bounds,
    }


def solve_milp(model: IlpModel) -> Solution:
    """Solve ``model`` exactly with HiGHS via ``milp``."""
    if model.num_variables == 0:
        return Solution(status=SolveStatus.OPTIMAL, objective=0.0)
    result = milp(**milp_args(model))
    if result.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE)
    if not result.success or result.x is None:
        return Solution(status=SolveStatus.ERROR)
    values = {
        v.name: (round(x) if v.integral else float(x))
        for v, x in zip(model.variables, result.x)
    }
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(result.fun),
        values=values,
    )
