"""ILP model construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Sense(Enum):
    """Constraint comparison senses."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(slots=True)
class Variable:
    """A decision variable (binary unless bounds say otherwise)."""

    name: str
    index: int
    cost: float = 0.0
    lower: float = 0.0
    upper: float = 1.0
    integral: bool = True


@dataclass(frozen=True, slots=True)
class LinTerm:
    """One ``coeff * variable`` term."""

    var: int
    coeff: float


@dataclass(slots=True)
class Constraint:
    """A linear constraint ``sum(terms) sense rhs``."""

    terms: list[LinTerm]
    sense: Sense
    rhs: float
    name: str = ""


class IlpModel:
    """A minimization ILP.

    Build with :meth:`add_binary` / :meth:`add_variable` and
    :meth:`add_constraint`, then pass to :func:`repro.ilp.solve`.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._by_name: dict[str, int] = {}

    def add_binary(self, name: str, cost: float = 0.0) -> int:
        """Add a 0/1 variable; returns its index."""
        return self.add_variable(name, cost=cost, lower=0.0, upper=1.0, integral=True)

    def add_variable(
        self,
        name: str,
        cost: float = 0.0,
        lower: float = 0.0,
        upper: float = 1.0,
        integral: bool = True,
    ) -> int:
        if name in self._by_name:
            raise ValueError(f"duplicate variable {name}")
        index = len(self.variables)
        self.variables.append(
            Variable(
                name=name,
                index=index,
                cost=cost,
                lower=lower,
                upper=upper,
                integral=integral,
            )
        )
        self._by_name[name] = index
        return index

    def var_index(self, name: str) -> int:
        return self._by_name[name]

    def add_constraint(
        self,
        terms: list[tuple[int, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> None:
        """Add ``sum(coeff * var) sense rhs``; terms are (index, coeff)."""
        for var, _ in terms:
            if not 0 <= var < len(self.variables):
                raise ValueError(f"constraint {name!r}: unknown variable {var}")
        self.constraints.append(
            Constraint(
                terms=[LinTerm(var, coeff) for var, coeff in terms],
                sense=sense,
                rhs=rhs,
                name=name,
            )
        )

    def add_exactly_one(self, var_indices: list[int], name: str = "") -> None:
        """Convenience for the paper's selection constraints (Eqs. 2-3)."""
        self.add_constraint(
            [(v, 1.0) for v in var_indices], Sense.EQ, 1.0, name=name
        )

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def is_feasible(self, values: list[float], tol: float = 1e-6) -> bool:
        """Check a full assignment against bounds and constraints."""
        for v in self.variables:
            x = values[v.index]
            if x < v.lower - tol or x > v.upper + tol:
                return False
            if v.integral and abs(x - round(x)) > tol:
                return False
        for c in self.constraints:
            lhs = sum(t.coeff * values[t.var] for t in c.terms)
            if c.sense is Sense.LE and lhs > c.rhs + tol:
                return False
            if c.sense is Sense.GE and lhs < c.rhs - tol:
                return False
            if c.sense is Sense.EQ and abs(lhs - c.rhs) > tol:
                return False
        return True
