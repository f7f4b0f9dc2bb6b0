"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

from repro.geom import Orientation, Rect
from repro.db import Cell, Design, Net, NetPin, Row
from repro.db.design import GCellGridSpec
from repro.benchgen.generator import DesignSpec, generate_design
from repro.droute.indexed import DrouteIndex
from repro.legalizer import WindowLegalizer


def build_tiny_design(tech, num_rows: int = 4, sites_per_row: int = 30) -> Design:
    """An empty legal canvas: rows only, ready for manual cells/nets."""
    site = tech.default_site()
    die = Rect(0, 0, sites_per_row * site.width, num_rows * site.height)
    design = Design("tiny", tech, die)
    for r in range(num_rows):
        design.add_row(
            Row(
                name=f"ROW_{r}",
                site=site,
                origin_x=0,
                origin_y=r * site.height,
                num_sites=sites_per_row,
                orient=Orientation.for_row(r),
            )
        )
    design.gcell_grid = GCellGridSpec(
        origin_x=0,
        origin_y=0,
        step_x=die.width // 4,
        step_y=die.height // 2,
        nx=4,
        ny=2,
    )
    return design


def add_cell(design: Design, name: str, macro: str, site_index: int, row: int):
    """Place one cell at a site/row, respecting row orientation."""
    r = design.rows[row]
    cell = Cell(
        name=name,
        macro=design.tech.macros[macro],
        x=r.site_x(site_index),
        y=r.origin_y,
        orient=r.orient,
    )
    design.add_cell(cell)
    return cell


def add_two_pin_net(design: Design, name: str, a: str, b: str, pin_a="Y", pin_b="A"):
    net = Net(name)
    net.add_pin(NetPin(a, pin_a))
    net.add_pin(NetPin(b, pin_b))
    design.add_net(net)
    return net


def fresh_small(seed: int = 42, **overrides) -> Design:
    """A fresh mutable copy of the small generated design."""
    params = dict(
        name="unit_small",
        num_cells=60,
        num_nets=50,
        utilization=0.7,
        gcells_per_axis=8,
        num_iopins=4,
        seed=seed,
    )
    params.update(overrides)
    return generate_design(DesignSpec(**params))


def lattice_nodes(lattice) -> list[tuple[int, int, int]]:
    """Every ``(layer, ix, iy)`` node of a track lattice, in sorted order."""
    return [
        (layer, ix, iy)
        for layer in range(lattice.tech.num_layers)
        for ix in range(lattice.nx)
        for iy in range(lattice.ny)
    ]


def droute_index(lattice, owner, occupancy, guide=None):
    """A ``DrouteIndex`` over dict maps (and a guide node set): index, guide stamp."""
    index = DrouteIndex(lattice, owner)
    for node, holder in occupancy.items():
        index.occupancy[index.nid_of(node)] = index.intern(holder)
    if guide is None:
        return index, None
    index.guide_stamp += 1
    for node in guide:
        index.guide_epoch[index.nid_of(node)] = index.guide_stamp
    return index, index.guide_stamp


class RecordingLegalizer(WindowLegalizer):
    """A window legalizer that keeps every enumerated window it solved.

    ``windows`` holds ``(options, outcome)`` pairs: ``options[i][j]`` is
    the ``j``-th slot of the ``i``-th movable cell as ``(cost, row,
    first site, end site, placement)`` — restated from the solver's
    inputs so a test can rebuild the Eq. 11 model on its own — and
    ``outcome`` is what the solver returned for it.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.windows: list[tuple[list[list[tuple]], object]] = []

    def _solve_enumerated(self, window, row_order, target_site):
        outcome = super()._solve_enumerated(window, row_order, target_site)
        site_width, row_height = window.site_width, window.row_height
        options = []
        for name, slots in zip(
            window.movable, window.options_with(row_order, target_site)
        ):
            median = window.medians[name]
            restated = []
            for slot_row, row_slice, local in slots:
                x = row_slice.site_x(local)
                y = row_slice.row.origin_y
                # Eq. 11 restated on purpose, not imported: the
                # reference must not inherit a solver-side cost bug.
                cost = (
                    site_width * (abs(x - median.x) / site_width)
                    + row_height * (abs(y - median.y) / row_height)
                )
                restated.append(
                    (cost, slot_row, local, local + window.cell_sites[name],
                     (x, y, row_slice.row.orient))
                )
            options.append(restated)
        self.windows.append((options, outcome))
        return outcome


def slots_overlap(a: tuple, b: tuple) -> bool:
    """Whether two ``RecordingLegalizer`` option slots share a site."""
    return a[1] == b[1] and a[2] < b[3] and b[2] < a[3]
