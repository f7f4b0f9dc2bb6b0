"""Unit tests for the design database."""

import pytest

from repro.geom import Orientation, Point, Rect
from repro.db import Cell, Design, IOPin, Net, NetPin, Blockage, check_legality
from repro.tech import PinDirection

from helpers import add_cell, add_two_pin_net, build_tiny_design


def test_cell_geometry(tech45):
    inv = tech45.macros["INV_X1"]
    cell = Cell("u", inv, x=1000, y=2800)
    assert cell.width == inv.width
    assert cell.bbox() == Rect(1000, 2800, 1000 + inv.width, 2800 + inv.height)
    assert cell.center == Point(1000 + inv.width // 2, 2800 + inv.height // 2)


def test_cell_pin_position_follows_orientation(tech45):
    inv = tech45.macros["INV_X1"]
    north = Cell("n", inv, x=0, y=0, orient=Orientation.N)
    flipped = Cell("f", inv, x=0, y=0, orient=Orientation.FS)
    pn = north.pin_position("A")
    pf = flipped.pin_position("A")
    assert pn.x == pf.x
    assert pf.y == inv.height - pn.y


def test_duplicate_cell_rejected(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "u1", "INV_X1", 0, 0)
    with pytest.raises(ValueError):
        add_cell(design, "u1", "INV_X1", 5, 0)


def test_move_cell_updates_spatial(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 0)
    assert design.spatial.query(cell.bbox()) == ["u1"]
    design.move_cell("u1", design.rows[1].site_x(5), design.rows[1].origin_y)
    assert design.spatial.query(Rect(0, 0, 100, 100)) == []
    assert "u1" in design.spatial.query(design.cells["u1"].bbox())


def test_move_fixed_cell_rejected(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 0)
    cell.fixed = True
    with pytest.raises(ValueError):
        design.move_cell("u1", 0, 0)


def test_nets_and_connectivity(tiny_design):
    d = tiny_design
    assert {n.name for n in d.nets_of_cell("u1")} == {"n1"}
    assert d.connected_cells("u1") == {"u2"}
    assert d.connected_cells("u4") == {"u3"}
    assert d.nets["n1"].degree == 2


def test_net_hpwl_and_bbox(tiny_design):
    d = tiny_design
    net = d.nets["n1"]
    p1 = d.pin_point(net.pins[0])
    p2 = d.pin_point(net.pins[1])
    assert d.net_hpwl(net) == abs(p1.x - p2.x) + abs(p1.y - p2.y)
    assert d.total_hpwl() == sum(d.net_hpwl(n) for n in d.nets.values())


def test_single_pin_net_hpwl_zero(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "u1", "INV_X1", 0, 0)
    net = Net("loner")
    net.add_pin(NetPin("u1", "Y"))
    design.add_net(net)
    assert design.net_hpwl(net) == 0


def test_iopin_lookup(tech45):
    design = build_tiny_design(tech45)
    pin = IOPin(
        "io0", Point(0, 700), layer=8, rect=Rect(-50, 650, 50, 750),
        direction=PinDirection.INPUT,
    )
    design.add_iopin(pin)
    net = Net("n")
    net.add_pin(NetPin(None, "io0"))
    design.add_net(net)
    assert design.pin_point(net.pins[0]) == Point(0, 700)
    assert design.pin_layer(net.pins[0]) == 8


def test_row_helpers(tech45):
    design = build_tiny_design(tech45)
    row = design.rows[1]
    assert design.row_at_y(row.origin_y) is row
    assert design.row_at_y(row.origin_y + 1) is None
    assert design.row_containing(row.origin_y + 10) is row


def test_blockage_split(tech45):
    design = build_tiny_design(tech45)
    design.add_blockage(Blockage(-1, Rect(0, 0, 100, 100)))
    design.add_blockage(Blockage(2, Rect(0, 0, 100, 100)))
    assert len(design.placement_blockages()) == 1
    assert len(design.routing_blockages()) == 1


def test_utilization_and_stats(tiny_design):
    stats = tiny_design.stats()
    assert stats["cells"] == 4
    assert stats["nets"] == 2
    assert 0 < stats["utilization"] < 1


# --------------------------------------------------------------- legality


def test_legal_design_reports_clean(tiny_design):
    report = check_legality(tiny_design)
    assert report.is_legal, report.summary()


def test_overlap_detected(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "u1", "DFF_X1", 0, 0)
    add_cell(design, "u2", "INV_X1", 2, 0)  # overlaps the 8-site DFF
    report = check_legality(design)
    assert ("u1", "u2") in report.overlaps


def test_abutting_cells_are_legal(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "u1", "INV_X1", 0, 0)
    add_cell(design, "u2", "INV_X1", 2, 0)
    assert check_legality(design).is_legal


def test_off_site_detected(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 0)
    cell.x += 17  # knock off the site grid
    design.spatial.move("u1", cell.bbox())
    report = check_legality(design)
    assert "u1" in report.off_site


def test_off_row_detected(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 0)
    cell.y += 100
    design.spatial.move("u1", cell.bbox())
    report = check_legality(design)
    assert "u1" in report.off_row


def test_bad_orientation_detected(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 1)
    cell.orient = Orientation.N  # row 1 wants FS
    report = check_legality(design)
    assert report.bad_orient == ["u1"]
    # the orientation is the only violation
    assert report.summary() == (
        "out_of_die=0 off_site=0 off_row=0 bad_orient=1 overlaps=0 blocked=0"
    )


def test_out_of_die_detected(tech45):
    design = build_tiny_design(tech45)
    cell = add_cell(design, "u1", "INV_X1", 0, 0)
    cell.x = -400
    design.spatial.move("u1", cell.bbox())
    report = check_legality(design)
    assert "u1" in report.out_of_die


def test_blocked_cell_detected(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "u1", "INV_X1", 0, 0)
    design.add_blockage(Blockage(-1, Rect(0, 0, 10000, 1400)))
    report = check_legality(design)
    assert "u1" in report.blocked
