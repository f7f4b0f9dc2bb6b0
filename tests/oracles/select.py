"""Dense reference for the Eq. 12 exclusion rows of ``repro.core.select``.

Production finds its candidate pairs through the per-cell touch index
and a sort-and-sweep over footprint bounding boxes, in O(pairs) memory.
This is the code it replaced, kept as it was: it
tests every pair of non-current candidates through ``count × count``
boolean masks and decides bbox survivors one ``Rect.intersects`` at a
time.  Both must add the same rows, in the same order, to an
:class:`~repro.ilp.IlpModel` — a test calls :func:`add_conflict_constraints`
on a fresh model with the same ``var_of`` and compares the rows.
"""

from __future__ import annotations

import numpy as np

from repro.geom import Rect
from repro.db import Design
from repro.ilp import IlpModel
from repro.core.candidates import MoveCandidate


def _candidate_footprint(
    design: Design, candidate: MoveCandidate
) -> list[Rect]:
    """Outlines this candidate writes: the cell plus conflict cells."""
    rects: list[Rect] = []
    moves = {candidate.cell: candidate.position}
    moves.update(candidate.conflict_moves)
    for name, (x, y, _) in moves.items():
        cell = design.cells[name]
        rects.append(Rect(x, y, x + cell.width, y + cell.height))
    return rects


def add_conflict_constraints(
    design: Design,
    candidates: dict[str, list[MoveCandidate]],
    model: IlpModel,
    var_of: dict[tuple[str, int], int],
) -> None:
    """Mutual exclusion between overlapping candidates of distinct cells.

    Also excludes pairs that relocate the *same* conflict cell to
    different places, and pairs where one candidate's footprint covers a
    cell another candidate assumes stays put.
    """
    entries: list[tuple[str, int, MoveCandidate, list[Rect], set[str]]] = []
    for cell_name, cell_candidates in candidates.items():
        for i, candidate in enumerate(cell_candidates):
            if candidate.is_current:
                continue
            touched = {candidate.cell} | set(candidate.conflict_moves)
            entries.append(
                (
                    cell_name,
                    i,
                    candidate,
                    _candidate_footprint(design, candidate),
                    touched,
                )
            )
    count = len(entries)
    if count < 2:
        return
    # The pairwise test is O(entries^2); screen it with vectorized
    # footprint bounding boxes so the exact (and strict-semantics)
    # Rect.intersects check only runs on spatially colliding pairs.
    # Same incompatibility relation, same (a, b) emission order, so
    # the resulting model is identical row-for-row.
    owner_ids: dict[str, int] = {}
    owner = np.empty(count, dtype=np.intp)
    blx = np.empty(count, dtype=np.int64)
    bly = np.empty(count, dtype=np.int64)
    bux = np.empty(count, dtype=np.int64)
    buy = np.empty(count, dtype=np.int64)
    for idx, (cell_name, _i, _cand, rects, _touched) in enumerate(entries):
        owner[idx] = owner_ids.setdefault(cell_name, len(owner_ids))
        blx[idx] = min(r.lx for r in rects)
        bly[idx] = min(r.ly for r in rects)
        bux[idx] = max(r.ux for r in rects)
        buy[idx] = max(r.uy for r in rects)
    distinct = owner[:, None] != owner[None, :]
    # strict-overlap test on bounding boxes: a superset of any-rect
    # overlap (every footprint rect lies inside its bbox)
    bbox = (
        (blx[:, None] < bux[None, :])
        & (blx[None, :] < bux[:, None])
        & (bly[:, None] < buy[None, :])
        & (bly[None, :] < buy[:, None])
    )
    incompatible = np.zeros((count, count), dtype=bool)
    touching: dict[str, list[int]] = {}
    for idx, entry in enumerate(entries):
        for name in entry[4]:
            touching.setdefault(name, []).append(idx)
    for ids in touching.values():
        if len(ids) > 1:
            hit = np.asarray(ids, dtype=np.intp)
            incompatible[np.ix_(hit, hit)] = True
    survivors = np.triu(bbox & distinct & ~incompatible, k=1)
    for a, b in zip(*np.nonzero(survivors)):
        rects_a = entries[a][3]
        rects_b = entries[b][3]
        if any(ra.intersects(rb) for ra in rects_a for rb in rects_b):
            incompatible[a, b] = True
    emit = np.triu(incompatible & distinct, k=1)
    for a in range(count):
        name_a, i_a = entries[a][0], entries[a][1]
        for b in np.nonzero(emit[a])[0]:
            name_b, i_b = entries[b][0], entries[b][1]
            model.add_at_most_one((var_of[(name_a, i_a)], var_of[(name_b, i_b)]))
