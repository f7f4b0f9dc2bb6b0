"""Step 5: Update Database.

Applies the selected moves, records move history (for Algorithm 1's
annealing term), and rips up and reroutes every net touching a moved
cell so the global-routing solution, demand maps, and via counts stay
consistent (the paper reroutes with the global router after movement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db import Design
from repro.groute import GlobalRouter
from repro.core.candidates import MoveCandidate


@dataclass(slots=True)
class UpdateStats:
    """What an Update-Database step changed."""

    moved_cells: list[str] = field(default_factory=list)
    rerouted_nets: list[str] = field(default_factory=list)
    total_displacement: int = 0


def apply_moves(
    design: Design,
    router: GlobalRouter,
    chosen: dict[str, MoveCandidate],
) -> UpdateStats:
    """Move cells, track history, reroute dirty nets."""
    stats = UpdateStats()
    for cell_name, candidate in chosen.items():
        if candidate.is_current:
            continue
        moves = {candidate.cell: candidate.position}
        moves.update(candidate.conflict_moves)
        for name, (x, y, orient) in moves.items():
            cell = design.cells[name]
            if (cell.x, cell.y) == (x, y) and cell.orient == orient:
                continue
            stats.total_displacement += abs(cell.x - x) + abs(cell.y - y)
            design.move_cell(name, x, y, orient)
            stats.moved_cells.append(name)
    design.moved_history.update(stats.moved_cells)
    if stats.moved_cells:
        stats.rerouted_nets = router.dirty_nets_for_cells(stats.moved_cells)
        router.reroute_nets(stats.rerouted_nets)
    return stats
