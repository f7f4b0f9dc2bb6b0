"""Unit tests for the window ILP legalizer."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Point, Rect
from repro.db import IOPin, Net, NetPin, check_legality
from repro.legalizer import WindowLegalizer
from repro.legalizer.median import median_position

from helpers import (
    RecordingLegalizer,
    add_cell,
    add_two_pin_net,
    build_tiny_design,
    counted,
    slots_overlap,
)


# ---------------------------------------------------------------- median


def test_median_position_excludes_own_pins(tech45):
    design = build_tiny_design(tech45)
    a = add_cell(design, "a", "INV_X1", 0, 0)
    b = add_cell(design, "b", "INV_X1", 20, 0)
    add_two_pin_net(design, "n", "a", "b")
    med = median_position(design, "a")
    # a's only external terminal is b's pin: the median is exactly there.
    assert med == design.cells["b"].pin_position("A")


def test_median_position_disconnected_cell(tech45):
    design = build_tiny_design(tech45)
    a = add_cell(design, "a", "INV_X1", 5, 1)
    assert median_position(design, "a") == a.center


# ---------------------------------------------------------------- window


def test_window_legalizer_returns_candidates(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "a", "INV_X1", 10, 0)
    add_cell(design, "b", "INV_X1", 25, 1)
    add_two_pin_net(design, "n", "a", "b")
    legalizer = WindowLegalizer(design, n_sites=10, n_rows=3, max_targets=4)
    candidates = legalizer.run("a")
    assert candidates
    for cand in candidates:
        x, y, orient = cand.position
        row = design.row_at_y(y)
        assert row is not None
        assert orient == row.orient
        assert (x - row.origin_x) % row.site.width == 0


def test_window_candidates_keep_design_legal(tech45):
    """Applying any candidate (with its conflict moves) stays legal."""
    design = build_tiny_design(tech45)
    add_cell(design, "a", "INV_X1", 10, 0)
    add_cell(design, "c", "NAND2_X1", 11, 0)  # abutting neighbour
    add_cell(design, "b", "INV_X1", 25, 1)
    add_two_pin_net(design, "n", "a", "b")
    legalizer = WindowLegalizer(design, n_sites=8, n_rows=3, max_targets=6)
    for cand in legalizer.run("a"):
        positions = {
            name: (cell.x, cell.y, cell.orient)
            for name, cell in design.cells.items()
        }
        design.move_cell("a", *cand.position)
        for name, pos in cand.conflict_moves.items():
            design.move_cell(name, *pos)
        report = check_legality(design)
        assert report.is_legal, (cand, report.summary())
        for name, pos in positions.items():
            design.move_cell(name, *pos)


def test_window_legalizer_displaces_neighbour(tech45):
    """A fully packed row forces conflict moves."""
    design = build_tiny_design(tech45, num_rows=2, sites_per_row=12)
    add_cell(design, "a", "INV_X1", 0, 0)
    for i in range(6):
        add_cell(design, f"f{i}", "INV_X1", i * 2, 1)
    # Target row 1 is full: moving a there must displace someone.
    add_cell(design, "b", "INV_X1", 10, 0)
    add_two_pin_net(design, "n", "a", "b")
    legalizer = WindowLegalizer(design, n_sites=12, n_rows=2, max_targets=20)
    candidates = legalizer.run("a")
    assert any(c.conflict_moves for c in candidates)


def test_window_legalizer_respects_fixed_cells(tech45):
    design = build_tiny_design(tech45, num_rows=2, sites_per_row=10)
    a = add_cell(design, "a", "INV_X1", 0, 0)
    blocker = add_cell(design, "blk", "DFF_X1", 0, 1)
    blocker.fixed = True
    legalizer = WindowLegalizer(design, n_sites=10, n_rows=2, max_targets=30)
    for cand in legalizer.run("a"):
        x, y, _ = cand.position
        box = Rect(x, y, x + a.width, y + a.height)
        assert not box.intersects(blocker.bbox())
        assert "blk" not in cand.conflict_moves


def test_window_legalizer_no_row_returns_empty(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "a", "INV_X1", 0, 0)
    cell.y = 10**9  # far off any row
    design.spatial.move("a", cell.bbox())
    assert WindowLegalizer(design).run("a") == []


def pull_to(design, cell_name: str, x: int, y: int) -> None:
    """Tie ``cell_name`` to an I/O pin at ``(x, y)``: its median position."""
    design.add_iopin(
        IOPin(f"io_{cell_name}", Point(x, y), layer=0, rect=Rect(x, y, x, y))
    )
    net = Net(f"pull_{cell_name}")
    net.add_pin(NetPin(cell_name, "A"))
    net.add_pin(NetPin(None, f"io_{cell_name}"))
    design.add_net(net)


@pytest.mark.parametrize("boxed_in", [False, True])
def test_window_tie_break_is_canonical(tech45, boxed_in):
    """Equal-cost optima resolve to the lower row, then the lower site."""
    design = build_tiny_design(tech45, num_rows=3, sites_per_row=20)
    add_cell(design, "a", "INV_X1", 0, 2)
    n = add_cell(design, "n", "INV_X1", 6, 1)
    m = add_cell(design, "m", "INV_X1", 16, 0)
    # Medians on the cells' own corners: staying put is free, and one
    # site left/right (or one row down/up) of ``n`` costs the same.
    pull_to(design, "n", n.x, n.y)
    pull_to(design, "m", m.x, m.y)
    if boxed_in:  # no room left in the row of ``n``
        for site in (0, 2, 4, 8, 10, 12, 14, 16, 18):
            add_cell(design, f"wall{site}", "INV_X1", site, 1).fixed = True
    row0, row1 = design.rows[0], design.rows[1]
    expected = (
        (row0.site_x(6), row0.origin_y, row0.orient)
        if boxed_in
        else (row1.site_x(4), row1.origin_y, row1.orient)
    )

    def onto_n(legalizer):
        (candidate,) = [
            c for c in legalizer.run("a") if c.position[:2] == (n.x, n.y)
        ]
        return candidate.position, dict(candidate.conflict_moves), candidate.displacement

    legalizer = WindowLegalizer(design, max_targets=100)
    first, counter = counted(onto_n, legalizer)
    assert first[1] == {"n": expected}
    assert counter("crp.window_tie_breaks") > 0
    again, counter = counted(onto_n, legalizer)
    assert again == first  # re-solved, same answer
    assert counter("crp.window_solves") > 0
    assert onto_n(WindowLegalizer(design, max_targets=100)) == first


def brute_force(options):
    """Loop reference of the enumerator: first optimum in option order."""
    best = None
    for combo in itertools.product(*(range(len(slots)) for slots in options)):
        picks = [slots[j] for slots, j in zip(options, combo)]
        if any(slots_overlap(a, b) for a, b in itertools.combinations(picks, 2)):
            continue
        total = picks[0][0]
        for pick in picks[1:]:
            total = total + pick[0]
        if best is None or total < best[1]:
            best = (tuple(pick[4] for pick in picks), total)
    return best


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_window_solver_matches_brute_force(tech45, seed):
    """Property: exact optimum and canonical tie-break on random windows."""
    rng = random.Random(seed)
    design = build_tiny_design(tech45, num_rows=3, sites_per_row=14)
    taken: set[tuple[int, int]] = set()
    for i in range(rng.randint(2, 9)):
        macro = rng.choice(["INV_X1", "NAND2_X1", "XOR2_X1"])
        width = design.tech.macros[macro].width // design.rows[0].site.width
        row, site = rng.randrange(3), rng.randrange(14 - width + 1)
        span = {(row, s) for s in range(site, site + width)}
        if span & taken:
            continue
        taken |= span
        cell = add_cell(design, f"u{i}", macro, site, row)
        cell.fixed = rng.random() < 0.2
    names = sorted(design.cells)
    # Overlapping draws are skipped, so a single cell may be all there is.
    for i in range(rng.randint(0, len(names)) if len(names) >= 2 else 0):
        a, b = rng.sample(names, 2)
        add_two_pin_net(design, f"n{i}", a, b)
    movable = [name for name in names if not design.cells[name].fixed]
    if not movable:
        return
    legalizer = RecordingLegalizer(
        design, n_sites=14, n_rows=3, max_targets=100,
        max_cells=rng.randint(1, 3),
    )
    legalizer.run(rng.choice(movable))
    for options, outcome in legalizer.windows:
        assert outcome == brute_force(options)


def test_four_cell_window_solves_through_the_ilp(tech45, monkeypatch):
    """Past the enumerator's 3-cell domain the general ILP still answers."""
    import repro.legalizer.window as window

    design = build_tiny_design(tech45, num_rows=2, sites_per_row=12)
    add_cell(design, "a", "INV_X1", 0, 0)
    for i in range(5):
        add_cell(design, f"f{i}", "INV_X1", i * 2, 1)
    solved = []
    real_solve = window.solve

    def counting_solve(model):
        solved.append(model.num_variables)
        return real_solve(model)

    monkeypatch.setattr(window, "solve", counting_solve)
    legalizer = WindowLegalizer(
        design, n_sites=12, n_rows=2, max_cells=4, max_targets=20
    )
    candidates, counter = counted(legalizer.run, "a")
    assert solved and counter("crp.window_solves") == 0
    # A repeat run solves the same models again, to the same answer.
    calls = len(solved)
    assert legalizer.run("a") == candidates and len(solved) == 2 * calls
    cand = next(c for c in candidates if c.conflict_moves)
    design.move_cell("a", *cand.position)
    for name, pos in cand.conflict_moves.items():
        design.move_cell(name, *pos)
    assert check_legality(design).is_legal
