"""ILP solve results."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class SolveStatus(Enum):
    """Outcome of an ILP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ERROR = "error"


@dataclass(slots=True)
class Solution:
    """Values and objective of a solved model."""

    status: SolveStatus
    objective: float = 0.0
    values: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, name: str) -> float:
        return self.values[name]

    def chosen(self, prefix: str = "") -> list[str]:
        """Names of binary variables set to 1 (optionally filtered)."""
        return [
            name
            for name, val in self.values.items()
            if val > 0.5 and name.startswith(prefix)
        ]
