"""Step 3: Candidate Position Cost Estimation (Algorithm 3).

For every candidate position of a critical cell, the cell's nets are
re-planned *virtually*: terminal positions are recomputed with the cell
(and its conflict cells) at the candidate location, decomposed by FLUTE,
and priced by the 3D pattern router's DP under the current demand state
— without committing anything to the routing graph.  Per the paper, only
one cell per net moves in an iteration, so the other terminals stay
where the committed routes put them.

The pricing itself is :class:`repro.core.fastecc.EccCache`; this module
defines what a candidate prices (:func:`candidate_scope`) and sums it.
"""

from __future__ import annotations

from repro.geom import Orientation, Point
from repro.db import Design, Net
from repro.flute import build_rsmt  # unused here; bench/tracing.py wraps this binding
from repro.groute import GlobalRouter
from repro.core.candidates import MoveCandidate

Node = tuple[int, int, int]


def estimate_candidate_cost(
    design: Design,
    router: GlobalRouter,
    candidate: MoveCandidate,
    cache,
) -> float:
    """Eq. 10 route cost of the candidate's cell nets (Algorithm 3).

    Only the critical cell's own nets are priced, as in the paper's
    Algorithm 3: the legalizer already minimized the conflict
    displacement.  ``cache`` is the pass's
    :class:`repro.core.fastecc.EccCache`, which fixes the cost field.
    """
    overrides, nets = candidate_scope(design, candidate)
    total = 0.0
    for net in nets:
        total += cache.net_cost(design, net, overrides)
    return total


def candidate_scope(
    design: Design, candidate: MoveCandidate
) -> tuple[dict[str, tuple[int, int, Orientation]], list[Net]]:
    """The virtual moves of ``candidate`` and the nets they are priced on."""
    overrides: dict[str, tuple[int, int, Orientation]] = {
        candidate.cell: candidate.position
    }
    if candidate.conflict_moves:
        overrides.update(candidate.conflict_moves)

    return overrides, list(design.nets_of_cell(candidate.cell))


def overridden_node(
    design: Design,
    router: GlobalRouter,
    pin,
    position: tuple[int, int, Orientation],
) -> Node:
    """Terminal node of one pin with its cell virtually at ``position``."""
    cell = design.cells[pin.cell]
    x, y, orient = position
    macro = cell.macro
    macro_pin = macro.pin(pin.pin)
    cx, cy = macro_pin.center_offset(orient, macro.width, macro.height)
    gx, gy = router.grid.gcell_of(Point(x + cx, y + cy))
    return (macro_pin.min_layer, gx, gy)
