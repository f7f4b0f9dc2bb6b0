"""The 0/1 choice model every ILP of the flow is.

Eq. 12 picks one candidate per cell and Eq. 11 one slot per window
cell: binaries with a cost, "exactly one" rows over each choice, and
"at most one" rows over choices that exclude each other.  That is all
:class:`IlpModel` holds, as flat lists; the HiGHS backend reads them
straight into its arrays.
"""

from __future__ import annotations


class IlpModel:
    """Minimize ``sum(costs[v] * x[v])`` over binaries ``x``.

    ``rows[i]`` holds the variables of row ``i``; ``exact[i]`` says
    whether their sum is exactly one (else at most one).
    """

    def __init__(self) -> None:
        self.costs: list[float] = []
        self.rows: list[tuple[int, ...]] = []
        self.exact: list[bool] = []

    def add_binary(self, cost: float = 0.0) -> int:
        """Add a 0/1 variable; returns its index."""
        self.costs.append(cost)
        return len(self.costs) - 1

    def add_exactly_one(self, variables) -> None:
        """Exactly one of ``variables`` is 1 (Eqs. 2-3)."""
        self._add_row(variables, True)

    def add_at_most_one(self, variables) -> None:
        """At most one of ``variables`` is 1."""
        self._add_row(variables, False)

    def _add_row(self, variables, exact: bool) -> None:
        row = tuple(variables)
        for var in row:
            if not 0 <= var < len(self.costs):
                raise ValueError(f"row {len(self.rows)}: unknown variable {var}")
        if len(set(row)) != len(row):
            raise ValueError(f"row {len(self.rows)} names a variable twice: {row}")
        self.rows.append(row)
        self.exact.append(exact)

    @property
    def num_variables(self) -> int:
        return len(self.costs)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)
