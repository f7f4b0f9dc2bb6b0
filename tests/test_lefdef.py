"""Unit tests for the LEF/DEF parsers and writers and the guide writer."""

import pytest

from repro.geom import Orientation, Rect
from repro.groute import GuideRect
from repro.lefdef import (
    parse_def,
    parse_lef,
    tokenize,
    write_def,
    write_guides,
    write_lef,
)
from repro.lefdef.lexer import TokenStream
from repro.benchgen import build_tech
from repro.benchgen.generator import DesignSpec, generate_design


# ------------------------------------------------------------------ lexer


def test_tokenize_semicolons_and_comments():
    tokens = tokenize("UNITS ;\n# a comment\nSIZE 0.2 BY 1.4 ; # tail\n")
    assert tokens == ["UNITS", ";", "SIZE", "0.2", "BY", "1.4", ";"]


def test_tokenize_glued_semicolon():
    assert tokenize("END UNITS;") == ["END", "UNITS", ";"]


def test_token_stream_expect_and_errors():
    stream = TokenStream(["A", "1", ";"])
    assert stream.next() == "A"
    assert stream.next_int() == 1
    stream.expect(";")
    assert stream.at_end()
    with pytest.raises(ValueError):
        stream.next()


def test_token_stream_expect_mismatch():
    stream = TokenStream(["X"])
    with pytest.raises(ValueError):
        stream.expect("Y")


def test_skip_statement():
    stream = TokenStream(["FOO", "1", "2", ";", "BAR"])
    stream.skip_statement()
    assert stream.next() == "BAR"


# -------------------------------------------------------------------- LEF

LEF_SNIPPET = """
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 2000 ;
END UNITS
SITE core
  CLASS CORE ;
  SIZE 0.2 BY 1.4 ;
END core
LAYER Metal1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.2 ;
  WIDTH 0.06 ;
  SPACING 0.14 ;
  AREA 0.0072 ;
  OFFSET 0.1 ;
END Metal1
LAYER via1
  TYPE CUT ;
END via1
LAYER Metal2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.2 ;
  WIDTH 0.06 ;
  SPACING 0.14 ;
END Metal2
VIA via12 DEFAULT
  LAYER Metal1 ;
    RECT -0.05 -0.05 0.05 0.05 ;
  LAYER Metal2 ;
    RECT -0.05 -0.05 0.05 0.05 ;
END via12
MACRO INV
  CLASS CORE ;
  SIZE 0.4 BY 1.4 ;
  SITE core ;
  PIN A
    DIRECTION INPUT ;
    PORT
      LAYER Metal1 ;
        RECT 0.08 0.6 0.12 0.8 ;
    END
  END A
  OBS
    LAYER Metal1 ;
      RECT 0.0 0.0 0.4 0.1 ;
  END
END INV
END LIBRARY
"""


def test_parse_lef_units_scaling():
    tech = parse_lef(LEF_SNIPPET)
    assert tech.dbu_per_micron == 2000
    site = tech.sites["core"]
    assert (site.width, site.height) == (400, 2800)


def test_parse_lef_layers_skip_cut():
    tech = parse_lef(LEF_SNIPPET)
    assert tech.num_layers == 2
    m1 = tech.layer_by_name("Metal1")
    assert m1.pitch == 400
    assert m1.min_area == 0.0072 * 2000 * 2000
    assert m1.is_horizontal
    assert tech.layer_by_name("Metal2").is_vertical


def test_parse_lef_via():
    tech = parse_lef(LEF_SNIPPET)
    assert len(tech.vias) == 1
    via = tech.vias[0]
    assert via.bottom == 0
    assert via.bottom_shape == Rect(-100, -100, 100, 100)


def test_parse_lef_macro_pin_and_obs():
    tech = parse_lef(LEF_SNIPPET)
    inv = tech.macros["INV"]
    assert inv.width == 800
    assert inv.site_name == "core"
    pin = inv.pin("A")
    assert pin.shapes[0].layer == 0
    assert pin.shapes[0].rect == Rect(160, 1200, 240, 1600)
    assert len(inv.obstructions) == 1


def test_lef_round_trip():
    tech = build_tech("45nm")
    text = write_lef(tech)
    back = parse_lef(text)
    assert back.dbu_per_micron == tech.dbu_per_micron
    assert back.num_layers == tech.num_layers
    assert set(back.macros) == set(tech.macros)
    for name, macro in tech.macros.items():
        parsed = back.macros[name]
        assert parsed.width == macro.width
        assert parsed.height == macro.height
        assert set(parsed.pins) == set(macro.pins)
        for pin_name, pin in macro.pins.items():
            assert parsed.pins[pin_name].shapes == pin.shapes


# -------------------------------------------------------------------- DEF


def _generated():
    return generate_design(
        DesignSpec(
            name="roundtrip",
            num_cells=30,
            num_nets=25,
            utilization=0.6,
            gcells_per_axis=6,
            num_iopins=4,
            num_blockages=1,
            seed=7,
        )
    )


def test_def_round_trip():
    design = _generated()
    text = write_def(design)
    back = parse_def(text, design.tech)
    assert back.name == design.name
    assert back.die == design.die
    assert len(back.rows) == len(design.rows)
    assert set(back.cells) == set(design.cells)
    for name, cell in design.cells.items():
        parsed = back.cells[name]
        assert (parsed.x, parsed.y) == (cell.x, cell.y)
        assert parsed.orient == cell.orient
        assert parsed.macro.name == cell.macro.name
        assert parsed.fixed == cell.fixed
    assert set(back.nets) == set(design.nets)
    for name, net in design.nets.items():
        assert [p.key() for p in back.nets[name].pins] == [
            p.key() for p in net.pins
        ]
    assert set(back.iopins) == set(design.iopins)
    assert len(back.blockages) == len(design.blockages)
    grid = back.gcell_grid
    assert grid is not None
    assert (grid.nx, grid.ny) == (design.gcell_grid.nx, design.gcell_grid.ny)


def test_def_parse_minimal():
    tech = build_tech("45nm")
    text = """
VERSION 5.8 ;
DESIGN mini ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 4000 2800 ) ;
ROW ROW_0 core 0 0 N DO 20 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
  - u1 INV_X1 + PLACED ( 200 0 ) N ;
END COMPONENTS
PINS 0 ;
END PINS
NETS 0 ;
END NETS
END DESIGN
"""
    design = parse_def(text, tech)
    assert design.name == "mini"
    assert design.cells["u1"].x == 200
    assert not design.cells["u1"].fixed


def test_def_fixed_component():
    tech = build_tech("45nm")
    text = """
DESIGN f ;
DIEAREA ( 0 0 ) ( 4000 2800 ) ;
COMPONENTS 1 ;
  - blk INV_X1 + FIXED ( 0 0 ) FS ;
END COMPONENTS
END DESIGN
"""
    design = parse_def(text, tech)
    assert design.cells["blk"].fixed
    assert design.cells["blk"].orient is Orientation.FS


# ------------------------------------------------------------------ guides


def test_write_guides_contest_format():
    tech = build_tech("45nm")
    guides = {
        "net1": [
            GuideRect(0, Rect(0, 0, 3000, 3000)),
            GuideRect(1, Rect(0, 0, 3000, 6000)),
        ],
        "net2": [GuideRect(2, Rect(100, 100, 200, 200))],
    }
    assert write_guides(guides, tech) == (
        "net1\n(\n0 0 3000 3000 Metal1\n0 0 3000 6000 Metal2\n)\n"
        "net2\n(\n100 100 200 200 Metal3\n)\n"
    )
