"""Step 4: Find the Best Candidates by ILP (Eq. 12).

One binary variable per (cell, candidate); exactly one candidate per
cell (Eq. 3); the objective is the summed Algorithm-3 route cost
(Eq. 12).  Candidates of *different* cells whose footprints (the moved
cell plus its conflict relocations) overlap get a mutual-exclusion
constraint so the combined move set stays legal — the per-cell window
legalizer guarantees legality per candidate, the ILP guarantees it
across cells.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from repro.db import Design
from repro.ilp import IlpModel, Solution, solve
from repro.obs import get_metrics
from repro.core.candidates import MoveCandidate

#: x-overlapping bbox pairs the sweep expands at once (a memory bound,
#: not a tuning knob: any value emits the same rows)
_SWEEP_BLOCK = 4096


def select_moves(
    design: Design,
    candidates: dict[str, list[MoveCandidate]],
) -> dict[str, MoveCandidate]:
    """Pick one candidate per critical cell minimizing total cost."""
    model, var_of = choice_model(candidates)
    pairs = _add_conflict_constraints(design, candidates, model, var_of)
    _publish_conflict_graph(candidates, pairs)
    # Infeasibility cannot happen (keep-current is always available and
    # mutually compatible), but a solver error can: then nothing moves.
    return chosen_candidates(candidates, solve(model))


def choice_model(
    candidates: dict[str, list[MoveCandidate]],
) -> tuple[IlpModel, dict[tuple[str, int], int]]:
    """One binary per candidate, priced by its ``route_cost`` (an
    unpriced one at 1e9), and one exactly-one row per cell (Eq. 3).

    Returns the model and ``var_of``: ``(cell, candidate index)`` to
    variable.  Variables follow ``candidates`` order, cell by cell.
    """
    model = IlpModel()
    var_of: dict[tuple[str, int], int] = {}
    for cell_name, cell_candidates in candidates.items():
        indices: list[int] = []
        for i, candidate in enumerate(cell_candidates):
            cost = candidate.route_cost
            var = model.add_binary(1e9 if cost == float("inf") else cost)
            var_of[(cell_name, i)] = var
            indices.append(var)
        model.add_exactly_one(indices)
    return model, var_of


def chosen_candidates(
    candidates: dict[str, list[MoveCandidate]], solution: Solution
) -> dict[str, MoveCandidate]:
    """Each cell's candidate whose :func:`choice_model` variable the
    solve set to 1; every cell's first (keep-current) one if it failed."""
    chosen = {cell_name: options[0] for cell_name, options in candidates.items()}
    if solution.ok:
        flat = [
            (cell_name, candidate)
            for cell_name, options in candidates.items()
            for candidate in options
        ]
        for var in solution.chosen:
            cell_name, candidate = flat[var]
            chosen[cell_name] = candidate
    return chosen


def _add_conflict_constraints(
    design: Design,
    candidates: dict[str, list[MoveCandidate]],
    model: IlpModel,
    var_of: dict[tuple[str, int], int],
) -> np.ndarray:
    """Add :func:`conflict_rows`' rows to ``model``; returns their cell pairs."""
    rows, pairs = conflict_rows(design, candidates, var_of)
    for row in rows:
        model.add_at_most_one(row)
    return pairs


def conflict_rows(
    design: Design,
    candidates: dict[str, list[MoveCandidate]],
    var_of: dict[tuple[str, int], int],
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Mutual exclusion between conflicting candidates of distinct cells.

    Two non-current candidates of different cells conflict when both
    write the same cell (the moved cell or one of its conflict
    relocations) or when any two of their footprint rects overlap
    strictly (abutting outlines are legal, as in ``Rect.intersects``).
    Pairs come from the touch index and from a sort-and-sweep over the
    footprint bounding boxes; the rows come in candidate order
    ``(a, b)``, so the model never depends on set or dict iteration.
    Nothing allocated here is candidates²: memory is linear in the
    candidates, the pairs the sweep meets and the rows returned.

    Returns the at-most-one rows, each a pair of :func:`choice_model`
    variables and each pair once, and per row the ``(cell, cell)``
    positions in ``candidates`` of the two cells it excludes.
    """
    owner: list[int] = []  # entry -> position of its cell in `candidates`
    variable: list[int] = []
    first_rect: list[int] = []  # entry -> its first rect; rects are contiguous
    touching: dict[str, list[int]] = {}
    lx: list[int] = []
    ly: list[int] = []
    ux: list[int] = []
    uy: list[int] = []
    for position, (cell_name, cell_candidates) in enumerate(candidates.items()):
        for i, candidate in enumerate(cell_candidates):
            if candidate.is_current:
                continue
            entry = len(owner)
            owner.append(position)
            variable.append(var_of[(cell_name, i)])
            first_rect.append(len(lx))
            moves = {candidate.cell: candidate.position}
            moves.update(candidate.conflict_moves)
            for name, (x, y, _) in moves.items():
                cell = design.cells[name]
                touching.setdefault(name, []).append(entry)
                lx.append(x)
                ly.append(y)
                ux.append(x + cell.width)
                uy.append(y + cell.height)
    count = len(owner)
    if count < 2:
        return [], np.empty((0, 2), dtype=np.intp)
    owners = np.asarray(owner, dtype=np.intp)
    starts = np.asarray(first_rect, dtype=np.intp)
    rect_count = np.diff(np.append(starts, len(lx)))
    rects = np.array([lx, ly, ux, uy], dtype=np.int64)
    bbox = np.concatenate(
        [
            np.minimum.reduceat(rects[:2], starts, axis=1),
            np.maximum.reduceat(rects[2:], starts, axis=1),
        ]
    )

    # Pairs are coded a * count + b with a < b, so sorting the codes
    # sorts the pairs by (a, b).  Same written cell: every touch list
    # holds ascending entries.
    touch = np.fromiter(
        (
            a * count + b
            for ids in touching.values()
            for a, b in combinations(ids, 2)
        ),
        dtype=np.int64,
    )
    found = [touch[owners[touch // count] != owners[touch % count]]]

    # Sweep: in bbox-lx order, each bbox meets the later ones that start
    # before it ends — every strictly overlapping pair, once.  Those
    # x-overlapping pairs far outnumber the overlapping ones, so they
    # are expanded, screened by bbox and decided by the exact test over
    # every (rect of a, rect of b) a block of _SWEEP_BLOCK at a time.
    order = np.argsort(bbox[0], kind="stable")
    stop = np.searchsorted(bbox[0][order], bbox[2][order])
    span = np.maximum(stop - np.arange(1, count + 1), 0)
    ends = np.cumsum(span)
    lo = 0
    while lo < count:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _SWEEP_BLOCK, "right")), lo + 1)
        group, rank = _ragged(span[lo:hi])
        group += lo
        one, other = order[group], order[group + 1 + rank]
        a, b = np.minimum(one, other), np.maximum(one, other)
        keep = (owners[a] != owners[b]) & _overlaps(bbox, a, b)
        a, b = a[keep], b[keep]
        pair, rank = _ragged(rect_count[a] * rect_count[b])
        width = rect_count[b][pair]
        ra = starts[a][pair] + rank // width
        rb = starts[b][pair] + rank % width
        hits = pair[_overlaps(rects, ra, rb)]
        found.append(a[hits] * count + b[hits])
        lo = hi

    a, b = np.divmod(np.unique(np.concatenate(found)), count)
    rows = [(variable[ea], variable[eb]) for ea, eb in zip(a.tolist(), b.tolist())]
    return rows, np.stack([owners[a], owners[b]], axis=1)


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(run, rank)`` of every slot when run ``i`` has ``lengths[i]`` slots."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    rank = np.arange(len(run)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return run, rank


def _overlaps(box: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``Rect.intersects`` (strict) of rects ``i`` and ``j``, elementwise.

    ``box`` holds one rect per column, rows ``lx, ly, ux, uy``.
    """
    lx, ly, ux, uy = box
    return (lx[i] < ux[j]) & (lx[j] < ux[i]) & (ly[i] < uy[j]) & (ly[j] < uy[i])


def _publish_conflict_graph(
    candidates: dict[str, list[MoveCandidate]], pairs: np.ndarray
) -> None:
    """Counters of one selection's conflict graph; reads, never decides.

    ``crp.select_pairs`` exclusion rows; ``crp.select_components``
    connected components of cells under them (singletons included), the
    size of the largest observed as ``crp.select_largest_component``;
    ``crp.select_tied_cells`` cells whose cheapest ``route_cost`` is
    shared by two or more of their candidates.
    """
    parent = list(range(len(candidates)))

    def root(cell: int) -> int:
        while parent[cell] != cell:
            parent[cell] = parent[parent[cell]]
            cell = parent[cell]
        return cell

    for a, b in np.unique(pairs, axis=0).tolist():
        parent[root(a)] = root(b)
    sizes = Counter(root(cell) for cell in range(len(candidates)))
    tied = 0
    for cell_candidates in candidates.values():
        costs = [candidate.route_cost for candidate in cell_candidates]
        tied += costs.count(min(costs)) >= 2
    metrics = get_metrics()
    metrics.count("crp.select_pairs", len(pairs))
    metrics.count("crp.select_components", len(sizes))
    metrics.observe("crp.select_largest_component", max(sizes.values(), default=0))
    metrics.count("crp.select_tied_cells", tied)
