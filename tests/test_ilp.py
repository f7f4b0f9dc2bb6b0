"""Unit and property tests for the ILP substrate: HiGHS, checked against
exhaustive enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import IlpModel, Sense, SolveStatus, solve

from oracles.exhaustive import solve_exhaustive

#: HiGHS (under the name of its fault site) and the enumeration that
#: ``test_backends_agree`` holds it to, so the reference is itself held
#: to the known answers
SOLVERS = {"scipy": solve, "exhaustive": solve_exhaustive}


def knapsack_model():
    """max value knapsack as min of negated values."""
    model = IlpModel("knapsack")
    items = [(-60, 10), (-100, 20), (-120, 30)]
    vars_ = [model.add_binary(f"x{i}", cost=v) for i, (v, _) in enumerate(items)]
    model.add_constraint(
        [(x, w) for x, (_, w) in zip(vars_, items)], Sense.LE, 50.0, "cap"
    )
    return model


@pytest.mark.parametrize("solver", SOLVERS)
def test_knapsack_optimum(solver):
    solution = SOLVERS[solver](knapsack_model())
    assert solution.ok
    assert solution.objective == pytest.approx(-220.0)
    assert solution.chosen() == ["x1", "x2"]


@pytest.mark.parametrize("solver", SOLVERS)
def test_infeasible_detected(solver):
    model = IlpModel()
    x = model.add_binary("x")
    model.add_constraint([(x, 1.0)], Sense.GE, 2.0)
    assert SOLVERS[solver](model).status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("solver", ["scipy"])
def test_empty_model(solver):
    model = IlpModel()
    solution = SOLVERS[solver](model)
    assert solution.ok
    assert solution.objective == 0.0


def test_exactly_one_convenience():
    model = IlpModel()
    a = model.add_binary("a", cost=5.0)
    b = model.add_binary("b", cost=3.0)
    c = model.add_binary("c", cost=9.0)
    model.add_exactly_one([a, b, c])
    solution = solve(model)
    assert solution.chosen() == ["b"]


def test_duplicate_variable_rejected():
    model = IlpModel()
    model.add_binary("x")
    with pytest.raises(ValueError):
        model.add_binary("x")


def test_constraint_unknown_variable_rejected():
    model = IlpModel()
    with pytest.raises(ValueError):
        model.add_constraint([(3, 1.0)], Sense.LE, 1.0)


def test_exhaustive_rejects_large_models():
    model = IlpModel()
    for i in range(30):
        model.add_binary(f"x{i}")
    with pytest.raises(ValueError):
        solve_exhaustive(model)


def test_exhaustive_rejects_non_binary():
    model = IlpModel()
    model.add_variable("x", lower=0.0, upper=5.0)
    with pytest.raises(ValueError):
        solve_exhaustive(model)


def test_is_feasible_checks_everything():
    model = IlpModel()
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_constraint([(x, 1.0), (y, 1.0)], Sense.EQ, 1.0)
    assert model.is_feasible([1.0, 0.0])
    assert not model.is_feasible([1.0, 1.0])
    assert not model.is_feasible([0.5, 0.5])  # integrality
    assert not model.is_feasible([2.0, -1.0])  # bounds


def test_unknown_backend():
    """``solve`` takes the model and nothing else: no solver is selectable."""
    with pytest.raises(TypeError):
        solve(IlpModel(), backend="cplex")


@st.composite
def random_models(draw):
    """Small random assignment-flavoured ILPs."""
    n_groups = draw(st.integers(1, 3))
    per_group = draw(st.integers(1, 3))
    model = IlpModel("random")
    groups = []
    for g in range(n_groups):
        vars_ = [
            model.add_binary(
                f"y{g}_{i}",
                cost=draw(
                    st.floats(min_value=0, max_value=100, allow_nan=False)
                ),
            )
            for i in range(per_group)
        ]
        model.add_exactly_one(vars_)
        groups.append(vars_)
    # Random LE couplings
    all_vars = [v for vs in groups for v in vs]
    if len(all_vars) >= 2:
        n_extra = draw(st.integers(0, 3))
        for _ in range(n_extra):
            chosen = draw(
                st.lists(
                    st.sampled_from(all_vars), min_size=2, max_size=4, unique=True
                )
            )
            model.add_constraint([(v, 1.0) for v in chosen], Sense.LE, 1.0)
    return model


@settings(max_examples=30, deadline=None)
@given(random_models())
def test_backends_agree(model):
    """HiGHS and enumeration find the same optimum."""
    highs = solve(model)
    reference = solve_exhaustive(model)
    assert highs.status is reference.status
    if highs.ok:
        assert abs(highs.objective - reference.objective) < 1e-6
        assert model.is_feasible([highs.values[v.name] for v in model.variables])
