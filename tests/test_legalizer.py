"""Unit tests for the legalizers (window ILP, Tetris, Abacus)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Point, Rect
from repro.db import IOPin, Net, NetPin, check_legality
from repro.legalizer import WindowLegalizer, abacus_legalize, tetris_legalize
from repro.legalizer.median import median_position

from helpers import (
    RecordingLegalizer,
    add_cell,
    add_two_pin_net,
    build_tiny_design,
    fresh_small,
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
    first = onto_n(legalizer)
    assert first[1] == {"n": expected}
    assert legalizer.tie_breaks > 0
    hits = legalizer.memo_hits
    assert onto_n(legalizer) == first  # answered by the memo
    assert legalizer.memo_hits > hits
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

    def counting_solve(model, **kwargs):
        solved.append(model.name)
        return real_solve(model, **kwargs)

    monkeypatch.setattr(window, "solve", counting_solve)
    legalizer = WindowLegalizer(
        design, n_sites=12, n_rows=2, max_cells=4, max_targets=20
    )
    candidates = legalizer.run("a")
    assert solved and legalizer.solves == 0
    # Unbudgeted ILP outcomes share the memo: a repeat run re-solves nothing.
    calls = len(solved)
    assert legalizer.memo_misses == calls
    assert legalizer.run("a") == candidates and len(solved) == calls
    # A budgeted solve is not a function of the window: never memoized.
    budgeted = WindowLegalizer(
        design, n_sites=12, n_rows=2, max_cells=4, max_targets=20,
        ilp_budget_s=60.0,
    )
    assert budgeted.run("a") and budgeted.run("a")
    assert budgeted.memo_misses == budgeted.memo_hits == 0
    assert len(solved) == 3 * calls
    cand = next(c for c in candidates if c.conflict_moves)
    design.move_cell("a", *cand.position)
    for name, pos in cand.conflict_moves.items():
        design.move_cell(name, *pos)
    assert check_legality(design).is_legal


# ---------------------------------------------------------------- tetris


def test_tetris_legalizes_overlaps(tech45):
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "DFF_X1", 0, 0)
    b = add_cell(design, "b", "INV_X1", 1, 0)  # overlapping a
    assert not check_legality(design).is_legal
    displacement = tetris_legalize(design)
    assert displacement > 0
    assert check_legality(design).is_legal


def test_tetris_skips_fixed(tech45):
    design = build_tiny_design(tech45)
    blk = add_cell(design, "blk", "DFF_X1", 0, 0)
    blk.fixed = True
    add_cell(design, "a", "INV_X1", 1, 0)
    tetris_legalize(design)
    assert (blk.x, blk.y) == (0, 0)
    report = check_legality(design)
    assert not report.overlaps


def test_tetris_raises_when_overfull(tech45):
    design = build_tiny_design(tech45, num_rows=1, sites_per_row=4)
    add_cell(design, "a", "DFF_X1", 0, 0)  # 8 sites wide, row has 4
    with pytest.raises(RuntimeError):
        tetris_legalize(design)


def test_tetris_no_rows(tech45):
    from repro.db import Design

    design = Design("norows", tech45, Rect(0, 0, 100, 100))
    with pytest.raises(ValueError):
        tetris_legalize(design)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_tetris_legalizes_random_scatter(seed):
    """Property: tetris always produces a fully legal placement."""
    import random

    design = fresh_small(seed=4242)
    rng = random.Random(seed)
    die = design.die
    for cell in design.cells.values():
        cell.x = rng.randint(0, die.ux - cell.width)
        cell.y = rng.randint(0, die.uy - cell.height)
        design.spatial.move(cell.name, cell.bbox())
    tetris_legalize(design)
    assert check_legality(design, check_orient=False).is_legal


# ---------------------------------------------------------------- abacus


def test_abacus_legalizes_row_overlaps(tech45):
    design = build_tiny_design(tech45, num_rows=2, sites_per_row=40)
    add_cell(design, "a", "INV_X1", 5, 0)
    b = add_cell(design, "b", "INV_X1", 5, 0)
    c = add_cell(design, "c", "NAND2_X1", 6, 0)
    abacus_legalize(design)
    report = check_legality(design)
    assert not report.overlaps, report.overlaps
    assert not report.off_site


def test_abacus_moves_less_than_tetris_on_dense_row(tech45):
    """Abacus minimizes displacement; compare on the same scatter."""
    import random

    def scattered():
        design = build_tiny_design(tech45, num_rows=3, sites_per_row=40)
        rng = random.Random(3)
        for i in range(12):
            cell = add_cell(design, f"u{i}", "NAND2_X1", 0, 0)
            cell.x = rng.randint(0, design.die.ux - cell.width)
            cell.y = rng.randint(0, design.die.uy - cell.height)
            design.spatial.move(cell.name, cell.bbox())
        return design

    d_abacus = scattered()
    d_tetris = scattered()
    disp_abacus = abacus_legalize(d_abacus)
    disp_tetris = tetris_legalize(d_tetris)
    assert check_legality(d_abacus, check_orient=False).overlaps == []
    assert disp_abacus <= disp_tetris * 1.5  # abacus is never much worse


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_abacus_legalizes_random_scatter(seed):
    """Property: abacus always removes every overlap."""
    import random

    design = fresh_small(seed=4242)
    rng = random.Random(seed)
    die = design.die
    for cell in design.cells.values():
        cell.x = rng.randint(0, die.ux - cell.width)
        cell.y = rng.randint(0, die.uy - cell.height)
        design.spatial.move(cell.name, cell.bbox())
    abacus_legalize(design)
    report = check_legality(design, check_orient=False)
    assert not report.overlaps
    assert not report.off_site
    assert not report.out_of_die
