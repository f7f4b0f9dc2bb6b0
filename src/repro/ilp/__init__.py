"""Integer linear programming substrate (replaces CPLEX).

A small modeling layer and one exact solver: :func:`solve` hands the
model to HiGHS branch-and-cut through scipy's own HiGHS extension
(:mod:`repro.ilp.scipy_backend`), without importing ``scipy.optimize``.
"""

from repro.ilp.model import Constraint, IlpModel, LinTerm, Sense, Variable
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.solver import solve

__all__ = [
    "IlpModel",
    "Variable",
    "Constraint",
    "LinTerm",
    "Sense",
    "Solution",
    "SolveStatus",
    "solve",
]
