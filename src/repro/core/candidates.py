"""Step 2: Generate Candidate Positions (Algorithm 2).

Each critical cell keeps its current position as the fallback candidate
(worst case: nothing moves) and receives legalized alternatives from the
ILP-based window legalizer, each possibly carrying compensating moves
for displaced neighbour ("conflict") cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geom import Orientation
from repro.db import Design
from repro.legalizer import WindowLegalizer
from repro.core.config import CrpConfig


@dataclass(slots=True)
class MoveCandidate:
    """One placement candidate of a critical cell.

    ``conflict_moves`` are the neighbour relocations this candidate
    requires (empty for the keep-current candidate); ``route_cost`` is
    filled by the estimation step (Algorithm 3).
    """

    cell: str
    position: tuple[int, int, Orientation]
    conflict_moves: dict[str, tuple[int, int, Orientation]] = field(
        default_factory=dict
    )
    displacement: float = 0.0
    route_cost: float = float("inf")

    @property
    def is_current(self) -> bool:
        return not self.conflict_moves and abs(self.displacement) <= 1e-9


def generate_candidates(
    design: Design,
    critical_cells: list[str],
    config: CrpConfig,
) -> dict[str, list[MoveCandidate]]:
    """Candidate positions per critical cell (Algorithm 2, lines 1-10)."""
    legalizer = WindowLegalizer(
        design,
        n_sites=config.n_sites,
        n_rows=config.n_rows,
        max_cells=config.max_cells,
        max_targets=config.max_targets,
        backend=config.ilp_backend,
        ilp_budget_s=config.ilp_budget_s,
    )
    result: dict[str, list[MoveCandidate]] = {}
    for name in critical_cells:
        cell = design.cells[name]
        candidates = [
            MoveCandidate(
                cell=name,
                position=(cell.x, cell.y, cell.orient),
                displacement=0.0,
            )
        ]
        for legalized in legalizer.run(name):
            candidates.append(
                MoveCandidate(
                    cell=name,
                    position=legalized.position,
                    conflict_moves=dict(legalized.conflict_moves),
                    displacement=legalized.displacement,
                )
            )
        result[name] = candidates
    legalizer.publish_metrics()
    return result
