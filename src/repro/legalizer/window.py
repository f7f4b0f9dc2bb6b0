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
ILP backend (``_solve_ilp``).  Only the pinned slot differs between the
targets of one cell: everything else is built once per ``run()``
(``_WindowModel``).

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
    band: Rect  # the slice's outline

    def site_x(self, local_site: int) -> int:
        return self.row.site_x(self.first_site + local_site)


@dataclass(slots=True)
class _Slots:
    """One neighbour's feasible slots, in model variable order, as vectors."""

    options: list[tuple[int, _WindowRow, int]]
    costs: np.ndarray  # Eq. 11 cost per option
    rows: np.ndarray  # window row order per option
    starts: np.ndarray  # first local site per option
    ends: np.ndarray  # one past the last local site
    places: list[tuple[int, int, Orientation]]


@dataclass(slots=True)
class _WindowModel:
    """What every target of one critical cell's window shares (Eq. 11).

    ``movable[0]`` is the critical cell; its only option is the target
    being tried, so ``slots`` holds the neighbours ``movable[1:]`` only.
    Lives for one ``run()``: ``_rescale`` derives what depends on the
    target row's site grid, and the slot vectors are built by the first
    target that misses the memo (``slots is None`` until then).
    """

    movable: list[str]
    window_rows: list[_WindowRow]
    medians: dict[str, Point]
    cell_width: int
    neighbour_boxes: list[Rect]
    site_width: int = 0
    row_height: int = 0
    cell_sites: dict[str, int] = field(default_factory=dict)
    #: the memo key of a target, minus the target itself
    key_tail: tuple = ()
    slots: list[_Slots] | None = None
    #: slot pairs of a 3-cell window's two neighbours that do not overlap
    apart: np.ndarray | None = None

    def options_with(
        self, row_order: int, target_site: int
    ) -> list[list[tuple[int, _WindowRow, int]]]:
        """Per-cell option lists in ``movable`` order, the pinned one first."""
        pinned = (row_order, self.window_rows[row_order], target_site)
        return [[pinned]] + [slots.options for slots in self.slots]


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
        #: window models whose slot vectors were built (at most one per run)
        self.models = 0

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
        window_box = Rect.bounding([s.band for s in window_rows])
        # One index query and one bbox() per cell in the window serve
        # neighbour picking, obstacle carving and the displacement check.
        boxes = {
            name: design.cells[name].bbox()
            for name in design.spatial.query(window_box)
        }
        movable = self._pick_movable(cell_name, window_box, boxes)
        self._carve_free_space(
            window_rows,
            window_box,
            [box for name, box in boxes.items() if name not in movable],
        )

        # Median positions depend only on the committed placement, not
        # on the target slot — compute once per run, not once per target.
        window = _WindowModel(
            movable=movable,
            window_rows=window_rows,
            medians={name: median_position(design, name) for name in movable},
            cell_width=cell.width,
            neighbour_boxes=[boxes[name] for name in movable[1:]],
        )
        self._rescale(window, home_row.site.width, home_row.height)

        candidates: list[LegalizedCandidate] = []
        for row_order, local_site in self._enumerate_targets(window):
            candidate = self._legalize_with_target(window, row_order, local_site)
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
                    band=Rect(
                        row.site_x(first),
                        row.origin_y,
                        row.site_x(first + count),
                        row.origin_y + row.height,
                    ),
                )
            )
        return slices

    def _pick_movable(
        self, cell_name: str, window_box: Rect, boxes: dict[str, Rect]
    ) -> list[str]:
        """The critical cell plus its nearest movable window neighbours."""
        design = self.design
        center = design.cells[cell_name].center
        neighbours: list[tuple[int, str]] = []
        for name, box in boxes.items():
            if name == cell_name:
                continue
            other = design.cells[name]
            if other.fixed:
                continue
            if not window_box.contains_rect(box):
                continue
            neighbours.append((center.manhattan_to(other.center), name))
        neighbours.sort()
        picked = [name for _, name in neighbours[: self.max_cells - 1]]
        return [cell_name] + picked

    def _carve_free_space(
        self,
        window_rows: list[_WindowRow],
        window_box: Rect,
        obstacle_boxes: list[Rect],
    ) -> None:
        """Mark sites covered by obstacles (non-movable cells, blockages)."""
        obstacle_boxes = obstacle_boxes + [
            b.rect for b in self.design.placement_blockages()
            if b.rect.intersects(window_box)
        ]
        for row_slice in window_rows:
            row = row_slice.row
            row_band = row_slice.band
            for box in obstacle_boxes:
                if not box.intersects(row_band):  # touching covers no site
                    continue
                s0 = (max(box.lx, row_band.lx) - row_band.lx) // row.site.width
                s1 = -(-(min(box.ux, row_band.ux) - row_band.lx) // row.site.width)
                row_slice.free[max(0, s0) : min(row_slice.num_sites, s1)] = False

    # -------------------------------------------------------------- targets

    def _enumerate_targets(self, window: _WindowModel) -> list[tuple[int, int]]:
        """Feasible ``(row order, local site)`` targets, best-first.

        A slot is feasible when the critical cell's sites are free of
        *obstacles* (movable neighbours may still be there — displacing
        them is exactly what the ILP resolves).  Slots are ordered by
        Eq. 11 cost so the best candidates are tried first.
        """
        cell_name = window.movable[0]
        cell = self.design.cells[cell_name]
        median = window.medians[cell_name]
        scored: list[tuple[int, int, int]] = []
        for order, row_slice, local in self._options_for(
            window.cell_sites[cell_name], window.window_rows
        ):
            x = row_slice.site_x(local)
            y = row_slice.row.origin_y
            if x == cell.x and y == cell.y:
                continue
            scored.append((abs(x - median.x) + abs(y - median.y), order, local))
        scored.sort()
        return [(order, local) for _, order, local in scored]

    # ------------------------------------------------------------------ ILP

    def _rescale(self, window: _WindowModel, site_width: int, row_height: int) -> None:
        """Derive what depends on the site grid; drops the slot vectors.

        Runs once per window unless its rows mix site grids, where each
        target is solved on its own row's grid, as it always was.
        """
        cells = self.design.cells
        window.site_width, window.row_height = site_width, row_height
        window.cell_sites = {
            name: self._width_in_sites(cells[name].width, site_width)
            for name in window.movable
        }
        window.key_tail = self._memo_key_tail(window)
        window.slots = window.apart = None

    def _legalize_with_target(
        self, window: _WindowModel, row_order: int, target_site: int
    ) -> LegalizedCandidate | None:
        """Solve Eq. 11 with the critical cell pinned to one target slot."""
        movable = window.movable
        cell_name = movable[0]
        target_row = window.window_rows[row_order]
        row = target_row.row
        target_x = target_row.site_x(target_site)
        target_y = row.origin_y

        # Fast path: if the slot displaces no movable neighbour, the
        # candidate is already legal — no ILP needed.
        target_box = Rect(
            target_x, target_y, target_x + window.cell_width, target_y + row.height
        )
        if not any(box.intersects(target_box) for box in window.neighbour_boxes):
            median = window.medians[cell_name]
            return LegalizedCandidate(
                cell=cell_name,
                position=(target_x, target_y, row.orient),
                conflict_moves={},
                displacement=float(
                    abs(target_x - median.x) + abs(target_y - median.y)
                ),
            )

        if (row.site.width, row.height) != (window.site_width, window.row_height):
            self._rescale(window, row.site.width, row.height)
        if len(movable) > 3 and self.ilp_budget_s is not None:
            # A budgeted solve is not a function of the window signature.
            outcome = self._solve(window, row_order, target_site)
        else:
            key = (row_order, target_site) + window.key_tail
            outcome = self._memo.get(key, _MEMO_MISS)
            if outcome is _MEMO_MISS:
                self.memo_misses += 1
                outcome = self._memo[key] = self._solve(
                    window, row_order, target_site
                )
            else:
                self.memo_hits += 1
        return self._candidate_from(
            cell_name, movable, target_row, target_site, outcome
        )

    def _solve(self, window: _WindowModel, row_order: int, target_site: int):
        """One pinned target of ``window``: ``None`` or ``(assignments, objective)``."""
        # The critical cell is pinned: its only admissible slot is the
        # target itself (when the carved span is free).
        target_row = window.window_rows[row_order]
        width = window.cell_sites[window.movable[0]]
        if target_site > target_row.num_sites - width:
            return None
        if not target_row.free[target_site : target_site + width].all():
            return None
        if window.slots is None:
            self.models += 1
            window.slots = [self._slots_of(window, name) for name in window.movable[1:]]
            if len(window.slots) == 2:
                one, two = window.slots
                window.apart = ~(
                    (one.rows[:, None] == two.rows[None, :])
                    & (one.starts[:, None] < two.ends[None, :])
                    & (two.starts[None, :] < one.ends[:, None])
                )
        if not all(slots.options for slots in window.slots):
            return None
        # Past the enumerator's 3-cell domain (``CrpConfig.max_cells > 3``)
        # the general ILP answers.
        if len(window.movable) > 3:
            return self._solve_ilp(window, row_order, target_site)
        return self._solve_enumerated(window, row_order, target_site)

    @staticmethod
    def _options_for(
        width_sites: int, window_rows: list[_WindowRow]
    ) -> list[tuple[int, _WindowRow, int]]:
        """Obstacle-free slots of a cell ``width_sites`` wide, window-row-major
        then by ascending site (the model's variable order)."""
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

    def _slots_of(self, window: _WindowModel, name: str) -> _Slots:
        """One neighbour's options with their Eq. 11 vectors."""
        width = window.cell_sites[name]
        median = window.medians[name]
        options = self._options_for(width, window.window_rows)
        costs = np.empty(len(options), dtype=np.float64)
        rows = np.empty(len(options), dtype=np.int64)
        starts = np.empty(len(options), dtype=np.int64)
        places: list[tuple[int, int, Orientation]] = []
        for j, (row_order, row_slice, local) in enumerate(options):
            x = row_slice.site_x(local)
            y = row_slice.row.origin_y
            costs[j] = _eq11_cost(
                x, y, median, window.site_width, window.row_height
            )
            rows[j] = row_order
            starts[j] = local
            places.append((x, y, row_slice.row.orient))
        return _Slots(options, costs, rows, starts, starts + width, places)

    def _solve_ilp(self, window: _WindowModel, row_order: int, target_site: int):
        """The Eq. 11 window as a general ILP, for > 3 movable cells.

        The enumerator's totals tensor grows as ``options ** cells``, so
        windows past its 3-cell domain are handed to the backend ladder;
        among tied optima the backend's choice stands.

        Returns ``None`` (infeasible / solver declined) or
        ``(assignments, objective)`` with one ``(x, y, orient)`` per
        movable cell in ``movable`` order.
        """
        movable = window.movable
        model = IlpModel(f"legalize[{movable[0]}]")
        # slot coverage: (row index in window, local site) -> list of vars
        coverage: dict[tuple[int, int], list[int]] = {}
        placements: dict[int, tuple[str, int, int, Orientation]] = {}

        all_options = window.options_with(row_order, target_site)
        for name, options in zip(movable, all_options):
            median = window.medians[name]
            var_indices: list[int] = []
            for slot_row, row_slice, local in options:
                x = row_slice.site_x(local)
                y = row_slice.row.origin_y
                cost = _eq11_cost(
                    x, y, median, window.site_width, window.row_height
                )
                var = model.add_binary(
                    f"y[{name}][{slot_row}][{local}]", cost=cost
                )
                var_indices.append(var)
                placements[var] = (name, x, y, row_slice.row.orient)
                for covered in range(local, local + window.cell_sites[name]):
                    coverage.setdefault((slot_row, covered), []).append(var)
            model.add_exactly_one(var_indices, name=f"place[{name}]")

        for (slot_row, local), vars_here in coverage.items():
            if len(vars_here) > 1:
                model.add_constraint(
                    [(v, 1.0) for v in vars_here],
                    Sense.LE,
                    1.0,
                    name=f"slot[{slot_row}][{local}]",
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

    def _memo_key_tail(self, window: _WindowModel) -> tuple:
        """Everything a window solve's outcome is a function of, bar the
        pinned target, which ``_legalize_with_target`` prepends.

        Covers the option enumeration (row geometry + free masks +
        widths in sites), the Eq. 11 costs (medians, site width, row
        height) and the current positions the conflict filter compares
        against.  Cell *names* are excluded on purpose — structurally
        identical subproblems deduplicate.
        """
        cells = self.design.cells
        medians = window.medians
        return (
            tuple(
                (
                    window.cell_sites[name],
                    medians[name].x,
                    medians[name].y,
                    cells[name].x,
                    cells[name].y,
                )
                for name in window.movable
            ),
            tuple(
                (
                    rs.band.lx,
                    rs.row.origin_y,
                    rs.row.site.width,
                    rs.row.height,
                    rs.row.orient,
                    rs.num_sites,
                    rs.free.tobytes(),
                )
                for rs in window.window_rows
            ),
        )

    def _solve_enumerated(
        self, window: _WindowModel, row_order: int, target_site: int
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
        name = window.movable[0]
        row_slice = window.window_rows[row_order]
        x = row_slice.site_x(target_site)
        y = row_slice.row.origin_y
        pinned = (x, y, row_slice.row.orient)
        c0 = np.float64(
            _eq11_cost(
                x, y, window.medians[name], window.site_width, window.row_height
            )
        )
        target_end = target_site + window.cell_sites[name]
        #: per neighbour, its options that do not overlap the pinned slot
        clear = [
            ~(
                (slots.rows == row_order)
                & (slots.starts < target_end)
                & (target_site < slots.ends)
            )
            for slots in window.slots
        ]
        if not clear:
            return ((pinned,), float(c0))

        if len(clear) == 1:
            (one,) = window.slots
            (feasible,) = clear
            if not feasible.any():
                return None
            totals = c0 + one.costs
            best = totals[feasible].min()
            optima = np.flatnonzero(feasible & (totals == best))
            self.tie_breaks += len(optima) > 1
            return ((pinned, one.places[int(optima[0])]), float(best))

        one, two = window.slots
        feasible = clear[0][:, None] & clear[1][None, :] & window.apart
        if not feasible.any():
            return None
        totals = (c0 + one.costs)[:, None] + two.costs[None, :]
        best = totals[feasible].min()
        optima = np.argwhere(feasible & (totals == best))
        self.tie_breaks += len(optima) > 1
        i, j = optima[0]
        return (
            (pinned, one.places[int(i)], two.places[int(j)]),
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
        metrics.count("crp.window_models", self.models)
        self.memo_hits = 0
        self.memo_misses = 0
        self.solves = 0
        self.tie_breaks = 0
        self.models = 0
