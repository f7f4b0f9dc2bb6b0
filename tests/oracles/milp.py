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

from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution, SolveStatus


def milp_args(model: IlpModel) -> dict:
    """The keyword arguments the backend passed to ``milp`` for ``model``."""
    n = model.num_variables
    constraints = []
    if model.rows:
        rows = [i for i, row in enumerate(model.rows) for _ in row]
        cols = [var for row in model.rows for var in row]
        matrix = csr_matrix(
            ([1.0] * len(cols), (rows, cols)), shape=(model.num_constraints, n)
        )
        lb = np.array([1.0 if exact else -np.inf for exact in model.exact])
        constraints = [LinearConstraint(matrix, lb, np.ones(model.num_constraints))]
    return {
        "c": np.array(model.costs, dtype=np.float64),
        "constraints": constraints,
        "integrality": np.ones(n, dtype=np.int8),
        "bounds": Bounds(lb=np.zeros(n), ub=np.ones(n)),
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
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(result.fun),
        chosen=[var for var, x in enumerate(result.x) if round(x) == 1],
    )
