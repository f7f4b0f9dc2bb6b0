"""Unit and property tests for the ILP substrate: HiGHS, checked against
exhaustive enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import IlpModel, SolveStatus, solve

from oracles.exhaustive import is_feasible, solve_exhaustive

#: HiGHS (under the name of its backend module) and the enumeration that
#: ``test_backends_agree`` holds it to, so the reference is itself held
#: to the known answers
SOLVERS = {"scipy": solve, "exhaustive": solve_exhaustive}


def assignment_model():
    """Two cells, three slots each; slot 0 of either excludes slot 1 of
    the other.  Alone each cell takes its slot 0 (cost 1), but together
    the cheapest legal pair is cell a's slot 1 and cell b's slot 0."""
    model = IlpModel()
    a = [model.add_binary(cost) for cost in (1.0, 2.0, 9.0)]
    b = [model.add_binary(cost) for cost in (1.0, 5.0, 9.0)]
    model.add_exactly_one(a)
    model.add_exactly_one(b)
    model.add_at_most_one([a[0], b[0]])
    return model


@pytest.mark.parametrize("solver", SOLVERS)
def test_assignment_optimum(solver):
    solution = SOLVERS[solver](assignment_model())
    assert solution.ok
    assert solution.objective == pytest.approx(3.0)
    assert solution.chosen == [1, 3]


@pytest.mark.parametrize("solver", SOLVERS)
def test_infeasible_detected(solver):
    """Both of two variables forced to 1, and excluded from each other."""
    model = IlpModel()
    x, y = model.add_binary(), model.add_binary()
    model.add_exactly_one([x])
    model.add_exactly_one([y])
    model.add_at_most_one([x, y])
    assert SOLVERS[solver](model).status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("solver", ["scipy"])
def test_empty_model(solver):
    model = IlpModel()
    solution = SOLVERS[solver](model)
    assert solution.ok
    assert solution.objective == 0.0


def test_exactly_one_convenience():
    model = IlpModel()
    a = model.add_binary(5.0)
    b = model.add_binary(3.0)
    c = model.add_binary(9.0)
    model.add_exactly_one([a, b, c])
    solution = solve(model)
    assert solution.chosen == [b]


def test_duplicate_variable_rejected():
    """A row names each of its variables once."""
    model = IlpModel()
    x = model.add_binary()
    with pytest.raises(ValueError):
        model.add_at_most_one([x, x])
    with pytest.raises(ValueError):
        model.add_exactly_one([x, x])
    assert model.num_constraints == 0


def test_constraint_unknown_variable_rejected():
    model = IlpModel()
    with pytest.raises(ValueError):
        model.add_at_most_one([3])


def test_exhaustive_rejects_large_models():
    model = IlpModel()
    for _ in range(30):
        model.add_binary()
    with pytest.raises(ValueError):
        solve_exhaustive(model)


def test_is_feasible_checks_everything():
    model = IlpModel()
    x, y, z = model.add_binary(), model.add_binary(), model.add_binary()
    model.add_exactly_one([x, y])
    model.add_at_most_one([y, z])
    assert is_feasible(model, [1, 0, 1])
    assert is_feasible(model, [0, 1, 0])
    assert not is_feasible(model, [1, 1, 0])  # exactly one, twice
    assert not is_feasible(model, [0, 0, 1])  # exactly one, never
    assert not is_feasible(model, [0, 1, 1])  # at most one, twice


def test_unknown_backend():
    """``solve`` takes the model and nothing else: no solver is selectable."""
    with pytest.raises(TypeError):
        solve(IlpModel(), backend="cplex")


@st.composite
def random_models(draw):
    """Small random assignment-flavoured ILPs."""
    n_groups = draw(st.integers(1, 3))
    per_group = draw(st.integers(1, 3))
    model = IlpModel()
    groups = []
    for _ in range(n_groups):
        vars_ = [
            model.add_binary(
                draw(st.floats(min_value=0, max_value=100, allow_nan=False))
            )
            for _ in range(per_group)
        ]
        model.add_exactly_one(vars_)
        groups.append(vars_)
    # Random at-most-one couplings
    all_vars = [v for vs in groups for v in vs]
    if len(all_vars) >= 2:
        n_extra = draw(st.integers(0, 3))
        for _ in range(n_extra):
            chosen = draw(
                st.lists(
                    st.sampled_from(all_vars), min_size=2, max_size=4, unique=True
                )
            )
            model.add_at_most_one(chosen)
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
        values = [int(var in highs.chosen) for var in range(model.num_variables)]
        assert is_feasible(model, values)
