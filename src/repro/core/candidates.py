"""Step 2: Generate Candidate Positions (Algorithm 2).

Each critical cell keeps its current position as the fallback candidate
(worst case: nothing moves) and receives legalized alternatives from the
ILP-based window legalizer, each possibly carrying compensating moves
for displaced neighbour ("conflict") cells.
"""

from __future__ import annotations

from repro.db import Design
from repro.legalizer import MoveCandidate, WindowLegalizer
from repro.core.config import CrpConfig

#: legalized candidates requested per critical cell
MAX_TARGETS = 6


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
        max_targets=MAX_TARGETS,
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
        candidates.extend(legalizer.run(name))
        result[name] = candidates
    return result
