"""The Fontana et al. [18] comparator.

The published algorithm moves *every* cell toward the median of its
connected nets' terminals (no priority ordering) and selects movements
with an ILP whose cost model counts only route length and detours — no
congestion term.  The CR&P paper credits exactly those two differences
(congestion-blind cost, no prioritization) for [18] losing on congested
designs, so this reimplementation keeps both characteristics:

* every movable cell is a candidate, processed in database order;
* the movement target is the free slot nearest the cell's median;
* estimation uses ``CostField(graph, use_penalty=False)`` (length + vias
  only);
* an ILP picks the move subset, excluding pairs that share a net.

Runtime scales with the full cell count (vs. CR&P's capped critical
fraction), reproducing the Fig. 2 runtime gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom import Orientation
from repro.db import Design
from repro.grid import CostField
from repro.groute import GlobalRouter
from repro.ilp import solve
from repro.legalizer import WindowLegalizer
from repro.legalizer.median import median_position
from repro.core.candidates import MoveCandidate
from repro.core.estimate import estimate_candidate_cost
from repro.core.select import choice_model, chosen_candidates, conflict_rows
from repro.core.update import apply_moves


#: the smallest window, in sites and rows, centred on a cell moving to
#: its median (the window widens to reach a median further away)
N_SITES = 16
N_ROWS = 3


@dataclass(slots=True)
class FontanaResult:
    """Outcome of a baseline run; its time is the ``flow.BASELINE`` span."""

    moved_cells: int = 0
    rerouted_nets: int = 0


class FontanaBaseline:
    """Move-to-median with ILP selection (no congestion awareness)."""

    def __init__(self, design: Design, router: GlobalRouter) -> None:
        self.design = design
        self.router = router
        # Congestion-blind pricing: same graph, penalty disabled.
        self._flat_field = CostField(router.graph, use_penalty=False)

    def run(self) -> FontanaResult:
        """Run the move-to-median optimization once."""
        design = self.design
        candidates: dict[str, list[MoveCandidate]] = {}
        # No prioritization: database order, every movable cell.
        for name, cell in design.cells.items():
            if cell.fixed:
                continue
            options = [
                MoveCandidate(
                    cell=name, position=(cell.x, cell.y, cell.orient)
                )
            ]
            options.extend(self._median_candidates(name))
            if len(options) > 1:
                candidates[name] = options

        with self.router.pattern3d.using(self._flat_field):
            for options in candidates.values():
                for candidate in options:
                    candidate.route_cost = estimate_candidate_cost(
                        design, self.router, candidate
                    )

        chosen = self._select(candidates)
        update = apply_moves(design, self.router, chosen)
        return FontanaResult(
            moved_cells=len(update.moved_cells),
            rerouted_nets=len(update.rerouted_nets),
        )

    def _median_candidates(self, name: str) -> list[MoveCandidate]:
        """The legalized slot nearest the cell's median, if any."""
        design = self.design
        cell = design.cells[name]
        median = median_position(design, name)
        # Only bother when the median is meaningfully away from the cell.
        site = design.tech.default_site()
        if (
            abs(median.x - cell.x) < site.width
            and abs(median.y - cell.y) < site.height
        ):
            return []
        # Temporarily recenter the window on the median by moving the
        # query point: the window legalizer centers on the cell, so use
        # a wider window when the median is far.
        span = max(N_SITES, 2 * abs(median.x - cell.x) // site.width + 2)
        rows = max(N_ROWS, 2 * abs(median.y - cell.y) // site.height + 1)
        wide = WindowLegalizer(
            design,
            n_sites=min(span, 60),
            n_rows=min(rows, 9),
            max_cells=1,  # [18] does not displace neighbours
            max_targets=1,
        )
        found = wide.run(name)
        wide.publish_metrics()
        return found

    def _select(
        self, candidates: dict[str, list[MoveCandidate]]
    ) -> dict[str, MoveCandidate]:
        """ILP over all cells: minimize flat route cost, one option each;
        cells sharing a net (or overlapping footprints) never both move."""
        design = self.design
        model, var_of = choice_model(candidates)

        # Net-sharing exclusion: moving both endpoints of a net at once
        # would invalidate both estimates ([18] enforces the same).  The
        # neighbour set is walked sorted: row order steers HiGHS's pick
        # among tied optima, so it must not follow the hash seed.
        rows: list[tuple[int, int]] = []
        names = list(candidates)
        name_set = set(names)
        for cell_name in names:
            for other in sorted(design.connected_cells(cell_name)):
                if other in name_set and other > cell_name:
                    for i in range(1, len(candidates[cell_name])):
                        for j in range(1, len(candidates[other])):
                            rows.append(
                                (var_of[(cell_name, i)], var_of[(other, j)])
                            )
        rows += conflict_rows(design, candidates, var_of)[0]
        # A pair of cells that share a net may also overlap: each pair
        # becomes one row, where it first occurs.
        once: dict[frozenset[int], tuple[int, int]] = {}
        for row in rows:
            once.setdefault(frozenset(row), row)
        for row in once.values():
            model.add_at_most_one(row)

        return chosen_candidates(candidates, solve(model))
