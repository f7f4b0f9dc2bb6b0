"""The HiGHS backend against ``scipy.optimize.milp``, and what it imports.

``repro.ilp.scipy_backend`` builds ``milp``'s arrays itself and runs
scipy's HiGHS extension without importing ``scipy.optimize``.  HiGHS must
see the same input and give the same answer — status, objective and
every value, so the same tie broken the same way — on random models and
on every model of a CR&P flow; and a flow must leave ``scipy.optimize``
unimported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._milp import _milp_iv

import repro.ilp.scipy_backend as backend
from repro.benchgen import make_design
from repro.flow import run_flow
from repro.ilp import IlpModel, Sense, solve
from repro.obs import observe

from oracles.milp import milp_args, solve_milp

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def models(draw):
    """Mixed models: binaries, bounded integers, continuous variables;
    tied costs; rows of every sense with repeated and zero terms; some
    infeasible, some without rows."""
    model = IlpModel("random")
    cost = st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0, 0.1, 0.2, 1e9])
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["binary", "binary", "integer", "continuous"]))
        if kind == "binary":
            model.add_binary(f"x{i}", cost=draw(cost))
        else:
            model.add_variable(
                f"x{i}",
                cost=draw(cost),
                lower=float(draw(st.integers(-2, 0))),
                upper=draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])),
                integral=kind == "integer",
            )
    n = model.num_variables
    for _ in range(draw(st.integers(0, 5))):
        terms = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.sampled_from([1.0, -1.0, 2.5, 0.3, 0.1, 0.0]),
                ),
                min_size=1,
                max_size=5,
            )
        )
        model.add_constraint(
            terms,
            draw(st.sampled_from(list(Sense))),
            draw(st.sampled_from([-1.0, 0.0, 1.0, 1.5, 3.0])),
        )
    return model


@settings(max_examples=300, deadline=None)
@given(models())
def test_arrays_equal_milps(model):
    """HiGHS is handed the arrays ``milp`` would hand it, bit for bit."""
    ours = backend.milp_arrays(model)
    c, integrality, lb, ub, indptr, indices, data, b_l, b_u, _ = _milp_iv(
        options=None, **milp_args(model)
    )
    theirs = (c, lb, ub, indptr, indices, data, b_l, b_u, integrality)
    for mine, reference in zip(ours, theirs):
        assert mine.dtype.kind == reference.dtype.kind
        assert mine.shape == reference.shape
        assert mine.tobytes() == reference.astype(mine.dtype).tobytes()


@settings(max_examples=300, deadline=None)
@given(models())
def test_solutions_equal_milps(model):
    assert backend.solve_scipy(model) == solve_milp(model)


def test_every_flow_model_solves_as_milp(monkeypatch):
    """ispd18_test1, CR&P k = 3 and [18]: each model HiGHS solves gets
    ``milp``'s status, objective and values."""
    production = backend.solve_scipy
    solved = []

    def checked(model):
        solution = production(model)
        assert solution == solve_milp(model)
        solved.append(model.name)
        return solution

    monkeypatch.setattr(backend, "solve_scipy", checked)
    for mode, kwargs in (("crp", {"crp_iterations": 3}), ("fontana", {})):
        result = run_flow(make_design("ispd18_test1"), mode=mode, skip_detailed=True, **kwargs)
        assert not result.failed
    assert len(solved) >= 4


_IMPORTS_PROBE = """
import json, sys
from repro.benchgen import make_design
from repro.flow import run_flow
from repro.obs import observe
with observe() as obs:
    result = run_flow(make_design("ispd18_test1"), mode="crp", crp_iterations=1,
                      skip_detailed=True)
loads = [s for root in obs.tracer.roots for s in root.walk() if s.name == "ilp.highs_load"]
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from repro.ilp import IlpModel
from repro.ilp.scipy_backend import solve_scipy
from scipy.optimize import milp
model = IlpModel()
a, b = model.add_binary("a", cost=2.0), model.add_binary("b", cost=1.0)
model.add_exactly_one([a, b])
late = milp(c=[2.0, 1.0], integrality=[1, 1], bounds=(0, 1),
            constraints=([[1.0, 1.0]], 1.0, 1.0))
print(json.dumps({
    "failed": result.failed,
    "loads": len(loads),
    "scipy_modules": scipy_modules,
    "ours": solve_scipy(model).chosen(),
    "late_milp": [round(x) for x in late.x],
}))
"""


def test_flow_leaves_scipy_optimize_unimported():
    """A fresh CR&P flow loads only the HiGHS extension from scipy, once,
    inside one ``ilp.highs_load`` span; a later ``import scipy.optimize``
    in the same process still works."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert not report["failed"]
    assert report["loads"] == 1
    assert report["scipy_modules"] and all(
        name.startswith(backend.CORE_MODULE) for name in report["scipy_modules"]
    ), report["scipy_modules"]
    assert report["ours"] == ["b"]
    assert report["late_milp"] == [0, 1]


def test_missing_extension_raises_import_error(monkeypatch):
    """Without the extension a solve raises ImportError naming the scipy
    it needs, and counts as an error; nothing answers in HiGHS's place."""
    monkeypatch.delitem(sys.modules, backend.CORE_MODULE, raising=False)
    monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".missing"])
    model = IlpModel("tiny")
    a, b = model.add_binary("a", cost=2.0), model.add_binary("b", cost=1.0)
    model.add_exactly_one([a, b])
    with observe() as obs:
        with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
            solve(model)
        assert obs.metrics.counter("ilp.status.error") == 1
