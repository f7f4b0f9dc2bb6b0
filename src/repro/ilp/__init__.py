"""Integer linear programming substrate (replaces CPLEX).

The 0/1 choice model the flow builds (:class:`IlpModel`) and one exact
solver: :func:`solve` hands the model to HiGHS branch-and-cut through
scipy's own HiGHS extension (:mod:`repro.ilp.scipy_backend`), without
importing ``scipy.optimize``.
"""

from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.solver import solve

__all__ = [
    "IlpModel",
    "Solution",
    "SolveStatus",
    "solve",
]
