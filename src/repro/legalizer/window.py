"""The ILP-based window legalizer (Section IV.B.2, Eq. 11).

Given a critical cell ``c``, the legalizer considers a local window of
``n_rows`` rows by ``n_sites`` sites centered on ``c``.  Up to
``max_cells`` cells (``c`` plus its nearest movable neighbours in the
window) may move; everything else is an obstacle.  For each enumerated
target position of ``c`` the Eq. 11 ILP — place the remaining movable
cells on free sites minimizing displacement toward their median
positions — is solved exactly, yielding one *legalized candidate*: a
new position for ``c`` plus the compensating moves of the conflict
cells.  Windows of up to 3 cells are solved by enumeration with a
canonical tie-break (``_solve_enumerated``); larger ones by a general
ILP backend (``_solve_ilp``).

The paper's defaults — ``|cells| = 3``, ``|sites| = 20``, ``|rows| = 5``
— are the constructor defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geom import Orientation, Point, Rect
from repro.db import Design, Row
from repro.ilp import IlpModel, Sense, solve
from repro.legalizer.median import median_position


@dataclass(slots=True)
class LegalizedCandidate:
    """One legalized outcome of moving a critical cell.

    ``position`` is the critical cell's new placement;
    ``conflict_moves`` maps each displaced neighbour to its new legal
    placement; ``displacement`` is the Eq. 11 objective value.
    """

    cell: str
    position: tuple[int, int, Orientation]
    conflict_moves: dict[str, tuple[int, int, Orientation]] = field(
        default_factory=dict
    )
    displacement: float = 0.0

    @property
    def is_current(self) -> bool:
        return not self.conflict_moves and abs(self.displacement) <= 1e-9


@dataclass(slots=True)
class _WindowRow:
    """One row's slice of the legalization window."""

    row: Row
    first_site: int
    num_sites: int
    free: np.ndarray  # bool per site in the window slice

    def site_x(self, local_site: int) -> int:
        return self.row.site_x(self.first_site + local_site)


_MEMO_MISS = object()


def _eq11_cost(
    x: int, y: int, median: Point, site_width: int, row_height: int
) -> float:
    """Eq. 11: site/row-granular displacement of a slot from the median.

    Ties between slots are exact float equalities and the tie-break
    steers the whole CR&P trajectory: do not re-associate.
    """
    return (
        site_width * (abs(x - median.x) / site_width)
        + row_height * (abs(y - median.y) / row_height)
    )


class WindowLegalizer:
    """Generates legalized candidate positions for critical cells."""

    def __init__(
        self,
        design: Design,
        n_sites: int = 20,
        n_rows: int = 5,
        max_cells: int = 3,
        max_targets: int = 8,
        backend: str = "auto",
        ilp_budget_s: float | None = None,
    ) -> None:
        self.design = design
        self.n_sites = n_sites
        self.n_rows = n_rows
        self.max_cells = max_cells
        self.max_targets = max_targets
        #: used only by the > 3-cell ILP path (``_solve_ilp``)
        self.backend = backend
        self.ilp_budget_s = ilp_budget_s
        #: window-signature -> solved outcome, scoped to this
        #: instance (CR&P builds a fresh legalizer per iteration)
        self._memo: dict = {}
        self.memo_hits = 0
        self.memo_misses = 0
        #: enumerated solves, and how many of them had > 1 exact optimum
        self.solves = 0
        self.tie_breaks = 0

    # ------------------------------------------------------------------ API

    def run(self, cell_name: str) -> list[LegalizedCandidate]:
        """Candidate positions for ``cell_name`` (Algorithm 2, line 3).

        Returns an empty list when the cell sits in no recognizable row
        or the window has no legal target other than the current spot.
        """
        design = self.design
        cell = design.cells[cell_name]
        home_row = design.row_at_y(cell.y) or design.row_containing(cell.y)
        if home_row is None:
            return []

        window_rows = self._window_rows(cell, home_row)
        movable = self._pick_movable(cell_name, window_rows)
        self._carve_free_space(window_rows, movable)

        # Median positions depend only on the committed placement, not
        # on the target slot — compute once per run, not once per target.
        medians = {name: median_position(design, name) for name in movable}

        cell_sites = self._width_in_sites(cell.width, home_row.site.width)
        target_positions = self._enumerate_targets(
            cell_name, window_rows, cell_sites, medians[cell_name]
        )

        candidates: list[LegalizedCandidate] = []
        for row_slice, local_site in target_positions:
            candidate = self._legalize_with_target(
                cell_name, movable, window_rows, row_slice, local_site, medians
            )
            if candidate is not None:
                candidates.append(candidate)
            if len(candidates) >= self.max_targets:
                break
        return candidates

    # ------------------------------------------------------------- geometry

    @staticmethod
    def _width_in_sites(width: int, site_width: int) -> int:
        return max(1, -(-width // site_width))

    def _window_rows(self, cell, home_row: Row) -> list[_WindowRow]:
        design = self.design
        half_rows = self.n_rows // 2
        lo = max(0, home_row.index - half_rows)
        hi = min(len(design.rows), lo + self.n_rows)
        lo = max(0, hi - self.n_rows)

        half_span = (self.n_sites * home_row.site.width) // 2
        window_lx = cell.x + cell.width // 2 - half_span

        slices: list[_WindowRow] = []
        for row in design.rows[lo:hi]:
            first = max(0, row.site_index(window_lx))
            count = min(self.n_sites, row.num_sites - first)
            if count <= 0:
                continue
            slices.append(
                _WindowRow(
                    row=row,
                    first_site=first,
                    num_sites=count,
                    free=np.ones(count, dtype=bool),
                )
            )
        return slices

    def _pick_movable(
        self, cell_name: str, window_rows: list[_WindowRow]
    ) -> list[str]:
        """The critical cell plus its nearest movable window neighbours."""
        design = self.design
        cell = design.cells[cell_name]
        window_box = self._window_bbox(window_rows)
        neighbours: list[tuple[int, str]] = []
        for name in design.spatial.query(window_box):
            if name == cell_name:
                continue
            other = design.cells[name]
            if other.fixed:
                continue
            if not window_box.contains_rect(other.bbox()):
                continue
            distance = cell.center.manhattan_to(other.center)
            neighbours.append((distance, name))
        neighbours.sort()
        picked = [name for _, name in neighbours[: self.max_cells - 1]]
        return [cell_name] + picked

    @staticmethod
    def _window_bbox(window_rows: list[_WindowRow]) -> Rect:
        boxes = [
            Rect(
                s.row.site_x(s.first_site),
                s.row.origin_y,
                s.row.site_x(s.first_site + s.num_sites),
                s.row.origin_y + s.row.height,
            )
            for s in window_rows
        ]
        return Rect.bounding(boxes)

    def _carve_free_space(
        self, window_rows: list[_WindowRow], movable: list[str]
    ) -> None:
        """Mark sites covered by obstacles (non-movable cells, blockages)."""
        design = self.design
        movable_set = set(movable)
        window_box = self._window_bbox(window_rows)
        obstacle_boxes = [
            design.cells[name].bbox()
            for name in design.spatial.query(window_box)
            if name not in movable_set
        ]
        obstacle_boxes += [
            b.rect for b in design.placement_blockages()
            if b.rect.intersects(window_box)
        ]
        for row_slice in window_rows:
            row = row_slice.row
            row_band = Rect(
                row.site_x(row_slice.first_site),
                row.origin_y,
                row.site_x(row_slice.first_site + row_slice.num_sites),
                row.origin_y + row.height,
            )
            for box in obstacle_boxes:
                overlap = box.intersection(row_band)
                if overlap is None or overlap.width == 0 or overlap.height == 0:
                    continue
                s0 = (overlap.lx - row_band.lx) // row.site.width
                s1 = -(-(overlap.ux - row_band.lx) // row.site.width)
                row_slice.free[max(0, s0) : min(row_slice.num_sites, s1)] = False

    # -------------------------------------------------------------- targets

    def _enumerate_targets(
        self,
        cell_name: str,
        window_rows: list[_WindowRow],
        cell_sites: int,
        median: Point,
    ) -> list[tuple[_WindowRow, int]]:
        """Feasible target slots for the critical cell, best-first.

        A slot is feasible when ``cell_sites`` consecutive window sites
        are free of *obstacles* (movable neighbours may still be there —
        displacing them is exactly what the ILP resolves).  Slots are
        ordered by Eq. 11 cost so the best candidates are tried first.
        """
        design = self.design
        cell = design.cells[cell_name]
        scored: list[tuple[float, int, _WindowRow, int]] = []
        for order, row_slice in enumerate(window_rows):
            for local in range(row_slice.num_sites - cell_sites + 1):
                if not row_slice.free[local : local + cell_sites].all():
                    continue
                x = row_slice.site_x(local)
                y = row_slice.row.origin_y
                if x == cell.x and y == cell.y:
                    continue
                cost = abs(x - median.x) + abs(y - median.y)
                scored.append((cost, order, row_slice, local))
        scored.sort(key=lambda item: (item[0], item[1], item[3]))
        return [(row_slice, local) for _, _, row_slice, local in scored]

    # ------------------------------------------------------------------ ILP

    def _legalize_with_target(
        self,
        cell_name: str,
        movable: list[str],
        window_rows: list[_WindowRow],
        target_row: _WindowRow,
        target_site: int,
        medians: dict[str, Point],
    ) -> LegalizedCandidate | None:
        """Solve Eq. 11 with the critical cell pinned to one target slot."""
        design = self.design
        site_width = target_row.row.site.width
        row_height = target_row.row.height

        cell_sites = {
            name: self._width_in_sites(design.cells[name].width, site_width)
            for name in movable
        }

        target_x = target_row.site_x(target_site)
        target_y = target_row.row.origin_y

        # Fast path: if the slot displaces no movable neighbour, the
        # candidate is already legal — no ILP needed.
        target_box = Rect(
            target_x,
            target_y,
            target_x + design.cells[cell_name].width,
            target_y + row_height,
        )
        displaced = [
            name
            for name in movable
            if name != cell_name
            and design.cells[name].bbox().intersects(target_box)
        ]
        if not displaced:
            median = medians[cell_name]
            return LegalizedCandidate(
                cell=cell_name,
                position=(target_x, target_y, target_row.row.orient),
                conflict_moves={},
                displacement=float(
                    abs(target_x - median.x) + abs(target_y - median.y)
                ),
            )

        def solve_with(solver):
            all_options: list[list[tuple[int, _WindowRow, int]]] = []
            for name in movable:
                options = self._options_for(
                    name, cell_name, cell_sites[name], window_rows,
                    target_row, target_site,
                )
                if not options:
                    return None
                all_options.append(options)
            return solver(
                movable, all_options, cell_sites, medians, site_width, row_height
            )

        # Past the enumerator's 3-cell domain (``CrpConfig.max_cells > 3``)
        # the general ILP answers.
        solver = self._solve_enumerated if len(movable) <= 3 else self._solve_ilp
        if len(movable) > 3 and self.ilp_budget_s is not None:
            # A budgeted solve is not a function of the window signature.
            outcome = solve_with(solver)
        else:
            key = self._memo_key(
                movable, window_rows, target_row, target_site, cell_sites, medians
            )
            outcome = self._memo.get(key, _MEMO_MISS)
            if outcome is _MEMO_MISS:
                self.memo_misses += 1
                outcome = self._memo[key] = solve_with(solver)
            else:
                self.memo_hits += 1
        return self._candidate_from(
            cell_name, movable, target_row, target_site, outcome
        )

    def _options_for(
        self,
        name: str,
        cell_name: str,
        width_sites: int,
        window_rows: list[_WindowRow],
        target_row: _WindowRow,
        target_site: int,
    ) -> list[tuple[int, _WindowRow, int]]:
        """Feasible slots of one movable cell, in model variable order."""
        if name == cell_name:
            # The critical cell is pinned: its only admissible slot is
            # the target itself (when the carved span is free).
            if target_site > target_row.num_sites - width_sites:
                return []
            span = target_row.free[target_site : target_site + width_sites]
            if not span.all():
                return []
            return [(window_rows.index(target_row), target_row, target_site)]
        options: list[tuple[int, _WindowRow, int]] = []
        for row_order, row_slice in enumerate(window_rows):
            count = row_slice.num_sites - width_sites + 1
            if count <= 0:
                continue
            free = row_slice.free
            if width_sites == 1:
                feasible = free
            else:
                # sliding-window "all free" via a prefix sum — one
                # vector op instead of a span.all() per start site
                prefix = np.zeros(len(free) + 1, dtype=np.intp)
                np.cumsum(free, out=prefix[1:])
                feasible = (
                    prefix[width_sites:] - prefix[:-width_sites]
                ) == width_sites
            for local in np.nonzero(feasible[:count])[0]:
                options.append((row_order, row_slice, int(local)))
        return options

    def _solve_ilp(
        self,
        movable: list[str],
        all_options: list[list[tuple[int, _WindowRow, int]]],
        cell_sites: dict[str, int],
        medians: dict[str, Point],
        site_width: int,
        row_height: int,
    ):
        """The Eq. 11 window as a general ILP, for > 3 movable cells.

        The enumerator's totals tensor grows as ``options ** cells``, so
        windows past its 3-cell domain are handed to the backend ladder;
        among tied optima the backend's choice stands.

        Returns ``None`` (infeasible / solver declined) or
        ``(assignments, objective)`` with one ``(x, y, orient)`` per
        movable cell in ``movable`` order.
        """
        model = IlpModel(f"legalize[{movable[0]}]")
        # slot coverage: (row index in window, local site) -> list of vars
        coverage: dict[tuple[int, int], list[int]] = {}
        placements: dict[int, tuple[str, int, int, Orientation]] = {}

        for name, options in zip(movable, all_options):
            median = medians[name]
            var_indices: list[int] = []
            for row_order, row_slice, local in options:
                x = row_slice.site_x(local)
                y = row_slice.row.origin_y
                cost = _eq11_cost(x, y, median, site_width, row_height)
                var = model.add_binary(
                    f"y[{name}][{row_order}][{local}]", cost=cost
                )
                var_indices.append(var)
                placements[var] = (name, x, y, row_slice.row.orient)
                for covered in range(local, local + cell_sites[name]):
                    coverage.setdefault((row_order, covered), []).append(var)
            model.add_exactly_one(var_indices, name=f"place[{name}]")

        for (row_order, local), vars_here in coverage.items():
            if len(vars_here) > 1:
                model.add_constraint(
                    [(v, 1.0) for v in vars_here],
                    Sense.LE,
                    1.0,
                    name=f"slot[{row_order}][{local}]",
                )

        solution = solve(model, backend=self.backend, budget_s=self.ilp_budget_s)
        if not solution.ok:
            return None

        chosen: dict[str, tuple[int, int, Orientation]] = {}
        for var_name in solution.chosen():
            name, x, y, orient = placements[model.var_index(var_name)]
            chosen[name] = (x, y, orient)
        if any(name not in chosen for name in movable):
            return None
        assignments = tuple(chosen[name] for name in movable)
        return (assignments, solution.objective)

    def _candidate_from(
        self,
        cell_name: str,
        movable: list[str],
        target_row: _WindowRow,
        target_site: int,
        outcome,
    ) -> LegalizedCandidate | None:
        """Materialize a solved outcome against the *current* placement.

        Splitting this from the solve keeps memoized outcomes reusable:
        the conflict filter compares against live cell positions, which
        are part of the memo key, so a hit reproduces the exact
        candidate a fresh solve would have produced.
        """
        if outcome is None:
            return None
        assignments, objective = outcome
        design = self.design
        target_x = target_row.site_x(target_site)
        target_y = target_row.row.origin_y
        conflict_moves: dict[str, tuple[int, int, Orientation]] = {}
        position: tuple[int, int, Orientation] | None = None
        for name, (x, y, orient) in zip(movable, assignments):
            cell = design.cells[name]
            if name == cell_name:
                position = (x, y, orient)
            elif (x, y) != (cell.x, cell.y):
                conflict_moves[name] = (x, y, orient)
        if position is None:
            return None
        if position != (target_x, target_y, target_row.row.orient):
            return None
        return LegalizedCandidate(
            cell=cell_name,
            position=position,
            conflict_moves=conflict_moves,
            displacement=objective,
        )

    # ------------------------------------------- memo + exact enumerator

    def _memo_key(
        self,
        movable: list[str],
        window_rows: list[_WindowRow],
        target_row: _WindowRow,
        target_site: int,
        cell_sites: dict[str, int],
        medians: dict[str, Point],
    ) -> tuple:
        """Everything a window solve's outcome is a function of.

        Covers the option enumeration (row geometry + free masks +
        widths in sites), the Eq. 11 costs (medians, site width, row
        height), the pinned target, and the current positions the
        conflict filter compares against.  Cell *names* are excluded on
        purpose — structurally identical subproblems deduplicate.
        """
        design = self.design
        cells = design.cells
        return (
            window_rows.index(target_row),
            target_site,
            tuple(
                (
                    cell_sites[name],
                    medians[name].x,
                    medians[name].y,
                    cells[name].x,
                    cells[name].y,
                )
                for name in movable
            ),
            tuple(
                (
                    rs.row.site_x(rs.first_site),
                    rs.row.origin_y,
                    rs.row.site.width,
                    rs.row.height,
                    rs.row.orient,
                    rs.num_sites,
                    rs.free.tobytes(),
                )
                for rs in window_rows
            ),
        )

    def _solve_enumerated(
        self,
        movable: list[str],
        all_options: list[list[tuple[int, _WindowRow, int]]],
        cell_sites: dict[str, int],
        medians: dict[str, Point],
        site_width: int,
        row_height: int,
    ):
        """Exact vectorized solve of the pinned-target assignment problem.

        The window model is tiny and rigidly structured: the critical
        cell is pinned to exactly one option and at most two neighbours
        each pick one free span, subject to pairwise non-overlap.  The
        optimum is the exact float minimum of the (masked) totals
        matrix.  When several feasible assignments attain it, the
        canonical tie-break returns the lexicographically smallest
        option-index tuple in ``movable`` order — options are enumerated
        window-row-major then by ascending site, so the first neighbour
        takes the lowest row, then the lowest site, then the second
        neighbour likewise.  Exact-equality ties decide the CR&P
        trajectory: the Eq. 11 cost expression and the accumulation
        order of ``totals`` below are part of the contract.

        Returns ``None`` (infeasible) or ``(assignments, objective)``.
        """
        self.solves += 1
        n = len(movable)

        costs: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        starts: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        places: list[list[tuple[int, int, Orientation]]] = []
        for name, options in zip(movable, all_options):
            median = medians[name]
            width = cell_sites[name]
            count = len(options)
            cvec = np.empty(count, dtype=np.float64)
            rvec = np.empty(count, dtype=np.int64)
            svec = np.empty(count, dtype=np.int64)
            pvec: list[tuple[int, int, Orientation]] = []
            for j, (row_order, row_slice, local) in enumerate(options):
                x = row_slice.site_x(local)
                y = row_slice.row.origin_y
                cvec[j] = _eq11_cost(x, y, median, site_width, row_height)
                rvec[j] = row_order
                svec[j] = local
                pvec.append((x, y, row_slice.row.orient))
            costs.append(cvec)
            rows.append(rvec)
            starts.append(svec)
            ends.append(svec + width)
            places.append(pvec)

        def against_pinned(i: int) -> np.ndarray:
            """Options of movable ``i`` that overlap the pinned slot."""
            return (
                (rows[i] == rows[0][0])
                & (starts[i] < ends[0][0])
                & (starts[0][0] < ends[i])
            )

        pinned = places[0][0]
        c0 = costs[0][0]
        if n == 1:
            return ((pinned,), float(c0))

        if n == 2:
            feasible = ~against_pinned(1)
            if not feasible.any():
                return None
            totals = c0 + costs[1]
            best = totals[feasible].min()
            optima = np.flatnonzero(feasible & (totals == best))
            self.tie_breaks += len(optima) > 1
            return ((pinned, places[1][int(optima[0])]), float(best))

        pair = (
            (rows[1][:, None] == rows[2][None, :])
            & (starts[1][:, None] < ends[2][None, :])
            & (starts[2][None, :] < ends[1][:, None])
        )
        feasible = (
            (~against_pinned(1))[:, None]
            & (~against_pinned(2))[None, :]
            & ~pair
        )
        if not feasible.any():
            return None
        totals = (c0 + costs[1])[:, None] + costs[2][None, :]
        best = totals[feasible].min()
        optima = np.argwhere(feasible & (totals == best))
        self.tie_breaks += len(optima) > 1
        i, j = optima[0]
        return (
            (pinned, places[1][int(i)], places[2][int(j)]),
            float(best),
        )

    def publish_metrics(self) -> None:
        """Flush window-kernel tallies as ``crp.window_*`` metric deltas."""
        from repro.obs import get_metrics

        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("crp.window_memo_hits", self.memo_hits)
        metrics.count("crp.window_memo_misses", self.memo_misses)
        metrics.count("crp.window_solves", self.solves)
        metrics.count("crp.window_tie_breaks", self.tie_breaks)
        self.memo_hits = 0
        self.memo_misses = 0
        self.solves = 0
        self.tie_breaks = 0
