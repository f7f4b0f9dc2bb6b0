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
    """Status, objective and the variables set to 1, ascending."""

    status: SolveStatus
    objective: float = 0.0
    chosen: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL
