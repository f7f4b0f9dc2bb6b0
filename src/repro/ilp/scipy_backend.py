"""HiGHS backend: scipy's own HiGHS extension, called without ``scipy.optimize``.

scipy ships HiGHS as the compiled module ``scipy.optimize._highspy._core``,
and :func:`scipy.optimize.milp` is a thin layer over it.  Importing
``scipy.optimize`` to reach it costs ~320 modules, ~0.4–0.6 s and ~45 MiB
of resident memory, nearly all of it for solvers this package never
calls.  :func:`highs_core` loads the extension file by itself instead
(~7 ms, ~3.5 MiB), registered under its canonical name so that a later
``import scipy.optimize`` in the same process reuses it.

:func:`solve_scipy` hands HiGHS exactly what ``milp(c, constraints=...,
integrality=..., bounds=...)`` would: the same float64 cost and bound
vectors, the same CSC matrix (rows sorted within each column, duplicate
terms summed), the same row bounds, and the one option ``milp`` sets
(``log_to_console=False``).  So the solve, and every tie HiGHS breaks, is
the one ``milp`` gives; ``tests/test_highs.py`` checks this against
``scipy.optimize.milp`` itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from repro.ilp.model import IlpModel, Sense
from repro.ilp.solution import Solution, SolveStatus
from repro.obs import get_tracer

#: the extension's import name inside scipy
CORE_MODULE = "scipy.optimize._highspy._core"


def highs_core():
    """scipy's HiGHS extension module, loaded once without its package.

    Raises :class:`ImportError` when the installed scipy has no such
    extension (scipy < 1.15 ships HiGHS differently).
    """
    module = sys.modules.get(CORE_MODULE)
    if module is None:
        with get_tracer().span("ilp.highs_load"):
            module = _load_core()
    return module


def _load_core():
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("repro.ilp needs scipy >= 1.15, and scipy is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(
            f"repro.ilp needs scipy >= 1.15: no HiGHS extension {CORE_MODULE} under {folder}"
        )
    module_spec = importlib.util.spec_from_file_location(CORE_MODULE, path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[CORE_MODULE] = module
    try:
        module_spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[CORE_MODULE]
        raise
    return module


def milp_arrays(model: IlpModel):
    """The arrays ``milp`` passes to HiGHS for ``model`` (at least one variable).

    Returns ``(cost, lb, ub, indptr, indices, data, row_lb, row_ub,
    integrality)``: float64 vectors, an int32 CSC matrix, uint8
    integrality.
    """
    n = model.num_variables
    m = model.num_constraints
    cost = np.array([v.cost for v in model.variables], dtype=np.float64)
    lb = np.array([v.lower for v in model.variables], dtype=np.float64)
    ub = np.array([v.upper for v in model.variables], dtype=np.float64)
    integrality = np.array(
        [1 if v.integral else 0 for v in model.variables], dtype=np.uint8
    )
    row_lb = np.full(m, -np.inf)
    row_ub = np.full(m, np.inf)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, c in enumerate(model.constraints):
        for t in c.terms:
            rows.append(i)
            cols.append(t.var)
            data.append(t.coeff)
        if c.sense is not Sense.GE:
            row_ub[i] = c.rhs
        if c.sense is not Sense.LE:
            row_lb[i] = c.rhs
    row = np.array(rows, dtype=np.int32)
    col = np.array(cols, dtype=np.int32)
    value = np.array(data, dtype=np.float64)
    # column-major, rows ascending within a column; duplicate (row, col)
    # terms summed one by one in the order they were added, as scipy's
    # sparse conversion does (np.add.at is sequential, reduceat is not)
    order = np.lexsort((row, col))
    row, col, value = row[order], col[order], value[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    if not first.all():
        repeat = ~first
        summed = value[first]
        np.add.at(summed, np.cumsum(first)[repeat] - 1, value[repeat])
        row, col, value = row[first], col[first], summed
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    return cost, lb, ub, indptr, row, value, row_lb, row_ub, integrality


def run_highs(cost, lb, ub, indptr, indices, data, row_lb, row_ub, integrality=None):
    """One HiGHS run on :func:`milp_arrays`-shaped input.

    ``integrality=None`` solves the LP relaxation.  Returns ``(status,
    objective, x)``; ``objective`` and ``x`` are None unless ``status`` is
    OPTIMAL.  Statuses map as ``milp``'s do: a model HiGHS refuses to
    load, or proves infeasible, is INFEASIBLE; anything short of a
    proven optimum is ERROR.
    """
    h = highs_core()
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lb)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = row_lb
    lp.row_upper_ = row_ub
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    if integrality is not None:
        lp.integrality_ = [h.HighsVarType(i) for i in integrality]

    highs = h._Highs()
    options = h.HighsOptions()
    options.log_to_console = False
    if highs.passOptions(options) == h.HighsStatus.kError:
        return SolveStatus.ERROR, None, None
    if highs.passModel(lp) == h.HighsStatus.kError:
        return SolveStatus.INFEASIBLE, None, None
    ran = highs.run() != h.HighsStatus.kError
    status = highs.getModelStatus()
    if status in (h.HighsModelStatus.kInfeasible, h.HighsModelStatus.kModelError):
        return SolveStatus.INFEASIBLE, None, None
    if not ran or status != h.HighsModelStatus.kOptimal:
        return SolveStatus.ERROR, None, None
    objective = float(highs.getInfo().objective_function_value)
    return SolveStatus.OPTIMAL, objective, highs.getSolution().col_value


def solve_scipy(model: IlpModel) -> Solution:
    """Solve ``model`` exactly with HiGHS, as :func:`scipy.optimize.milp` would."""
    if model.num_variables == 0:
        return Solution(status=SolveStatus.OPTIMAL, objective=0.0)
    status, objective, x = run_highs(*milp_arrays(model))
    if status is not SolveStatus.OPTIMAL:
        return Solution(status=status)
    values = {
        v.name: (round(value) if v.integral else float(value))
        for v, value in zip(model.variables, x)
    }
    return Solution(status=status, objective=objective, values=values)
