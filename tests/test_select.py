"""The Eq. 12 exclusion rows: production against the dense reference.

``repro.core.select._add_conflict_constraints`` finds its pairs through
the touch index and a bounding-box sweep; :mod:`oracles.select` tests
every pair of candidates.  They must add the same rows in the same order,
on random candidate sets and on every
iteration of a CR&P flow, and production must do it without the
reference's candidates² memory.
"""

from __future__ import annotations

import random
import tracemalloc
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.select as select
from repro.core import MoveCandidate, select_moves
from repro.ilp import IlpModel
from repro.benchgen import make_design
from repro.flow import run_flow
from repro.obs import observe, render_metrics

from helpers import add_cell, build_tiny_design, fresh_small
from oracles.select import add_conflict_constraints as dense_conflict_constraints


def _rows(add_rows, design, candidates) -> list:
    """The exclusion rows ``add_rows`` adds to ``select_moves``'s model."""
    model, var_of = select.choice_model(candidates)
    before = model.num_constraints
    add_rows(design, candidates, model, var_of)
    assert not any(model.exact[before:])
    return model.rows[before:]


# ------------------------------------------------------------ property


@lru_cache(maxsize=1)
def _small():
    return fresh_small()


@st.composite
def candidate_sets(draw):
    """Candidates crowded into a 3-row × 18-site corner of ``fresh_small``.

    Slots sit on the site grid, so footprints overlap, abut (edge or
    corner contact, which must not conflict) or lie apart; conflict moves
    draw from a pool of six cells, so candidates of different cells share
    written cells.  Some cells keep only their current position; some
    extra candidates are keep-current ones (no move, no displacement).
    """
    design = _small()
    movable = sorted(n for n, c in design.cells.items() if not c.fixed)
    cells = draw(st.lists(st.sampled_from(movable), min_size=1, max_size=8, unique=True))
    pool = movable[:6]

    def slot():
        row = design.rows[draw(st.integers(0, 2))]
        return (row.site_x(draw(st.integers(0, 17))), row.origin_y, row.orient)

    candidates = {}
    for name in cells:
        cell = design.cells[name]
        options = [MoveCandidate(name, (cell.x, cell.y, cell.orient))]
        for _ in range(draw(st.integers(0, 4))):
            moved = draw(st.sets(st.sampled_from(pool), max_size=2)) - {name}
            options.append(
                MoveCandidate(
                    name,
                    slot(),
                    conflict_moves={other: slot() for other in sorted(moved)},
                    displacement=draw(st.sampled_from([0.0, 1.0, 2.5])),
                )
            )
        candidates[name] = options
    return design, candidates


@settings(max_examples=200, deadline=None)
@given(candidate_sets())
def test_rows_equal_the_dense_reference(case):
    design, candidates = case
    rows = _rows(select._add_conflict_constraints, design, candidates)
    assert rows == _rows(dense_conflict_constraints, design, candidates)


def test_abutting_footprints_do_not_conflict():
    design = _small()
    a, b = sorted(n for n, c in design.cells.items() if not c.fixed)[:2]
    row = design.rows[0]
    right_of_a = design.cells[a].width // row.site.width
    candidates = {
        a: [MoveCandidate(a, (row.site_x(0), row.origin_y, row.orient), displacement=1.0)],
        b: [MoveCandidate(b, (row.site_x(right_of_a), row.origin_y, row.orient), displacement=1.0)],
    }
    assert _rows(select._add_conflict_constraints, design, candidates) == []
    # one site further left, b overlaps a
    candidates[b][0].position = (row.site_x(right_of_a - 1), row.origin_y, row.orient)
    assert len(_rows(select._add_conflict_constraints, design, candidates)) == 1


# ---------------------------------------------------------------- flow


def test_every_flow_model_equals_the_reference(monkeypatch):
    """ispd18_test1, k = 3: each iteration's rows equal the reference's,
    and ``crp run --profile`` shows the conflict-graph counters of those
    rows."""
    production = select._add_conflict_constraints
    seen = []

    def checked(design, candidates, model, var_of):
        before = model.num_constraints
        pairs = production(design, candidates, model, var_of)
        reference = IlpModel()
        for cost in model.costs:
            reference.add_binary(cost)
        dense_conflict_constraints(design, candidates, reference, var_of)
        assert model.rows[before:] == reference.rows
        assert not any(model.exact[before:] + reference.exact)
        seen.append(len(pairs))
        return pairs

    monkeypatch.setattr(select, "_add_conflict_constraints", checked)
    result = run_flow(
        make_design("ispd18_test1"), mode="crp", crp_iterations=3,
        skip_detailed=True,
    )
    assert len(seen) == 3 and all(seen)
    counters = result.metrics["counters"]
    assert counters["crp.select_pairs"] == sum(seen)
    assert counters["crp.select_components"] >= 3
    assert result.metrics["histograms"]["crp.select_largest_component"]["count"] == 3
    shown = render_metrics(result.metrics)
    for name in (
        "crp.select_pairs",
        "crp.select_components",
        "crp.select_largest_component",
        "crp.select_tied_cells",
    ):
        assert name in shown


def test_conflict_graph_counters(tech45):
    """a and b race for one slot; c keeps its place; d ties keep and move."""
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=60)
    for k, name in enumerate("abcd"):
        add_cell(design, name, "INV_X1", 10 * k, 1)
    row = design.rows[3]
    target = (row.site_x(0), row.origin_y, row.orient)
    candidates = {}
    for name, move_to, keep_cost, move_cost in (
        ("a", target, 9.0, 1.0),
        ("b", target, 9.0, 2.0),
        ("c", None, 4.0, None),
        ("d", (row.site_x(40), row.origin_y, row.orient), 5.0, 5.0),
    ):
        cell = design.cells[name]
        keep = MoveCandidate(name, (cell.x, cell.y, cell.orient))
        keep.route_cost = keep_cost
        candidates[name] = [keep]
        if move_to is not None:
            move = MoveCandidate(name, move_to, displacement=1.0)
            move.route_cost = move_cost
            candidates[name].append(move)
    with observe() as observation:
        chosen = select_moves(design, candidates)
    assert chosen["a"].position == target and chosen["b"].position != target
    snapshot = observation.metrics.snapshot()
    assert snapshot["counters"]["crp.select_pairs"] == 1
    assert snapshot["counters"]["crp.select_components"] == 3  # {a, b}, {c}, {d}
    assert snapshot["counters"]["crp.select_tied_cells"] == 1  # d
    assert snapshot["histograms"]["crp.select_largest_component"]["max"] == 2


# -------------------------------------------------------------- memory

#: tracemalloc peak allowed for one build of the ceiling case below:
#: production reads ~1.5 MiB (rows included), the dense reference ~10.4
PEAK_BOUND_MIB = 3.0


def _ceiling_case(tech):
    """200 critical cells × (keep-current + 6 legalized candidates).

    ``MAX_CRITICAL_CELLS × MAX_TARGETS``, the most one iteration can
    hand the selection.  Cells sit in 10 bands two rows apart × 20
    columns six sites apart, each candidate within ±2 rows and ±10 sites
    of its cell, half of them relocating the cell's neighbour (sometimes
    the next column's): about 2 100 rows.
    """
    rng = random.Random(0)
    design = build_tiny_design(tech, num_rows=24, sites_per_row=160)
    homes = []
    for k in range(200):
        row, site = 2 + 2 * (k // 20), 12 + 6 * (k % 20)
        add_cell(design, f"c{k}", "INV_X1", site, row)
        add_cell(design, f"n{k}", "NAND2_X1", site + 3, row)
        homes.append((row, site))

    def near(row, site):
        r = design.rows[row + rng.randint(-2, 2)]
        return (r.site_x(site + rng.randint(-10, 10)), r.origin_y, r.orient)

    candidates = {}
    for k, (row, site) in enumerate(homes):
        cell = design.cells[f"c{k}"]
        options = [MoveCandidate(cell.name, (cell.x, cell.y, cell.orient))]
        for _ in range(6):
            conflicts = {}
            if rng.random() < 0.5:
                neighbour = k if rng.random() < 0.8 or k == 199 else k + 1
                conflicts[f"n{neighbour}"] = near(row, site + 3)
            options.append(
                MoveCandidate(cell.name, near(row, site), conflicts, displacement=1.0)
            )
        candidates[cell.name] = options
    return design, candidates


def _peak_mib(add_rows, design, candidates) -> float:
    model, var_of = select.choice_model(candidates)
    tracemalloc.start()
    try:
        add_rows(design, candidates, model, var_of)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_peak_memory_is_linear_in_pairs(tech45):
    design, candidates = _ceiling_case(tech45)
    # first calls pay numpy's lazy imports outside the measurement
    _rows(select._add_conflict_constraints, design, candidates)
    _rows(dense_conflict_constraints, design, candidates)
    np.unique(np.arange(3))
    sparse = _peak_mib(select._add_conflict_constraints, design, candidates)
    dense = _peak_mib(dense_conflict_constraints, design, candidates)
    assert sparse < PEAK_BOUND_MIB < dense, (sparse, dense)
