"""Unit tests for the technology objects and synthetic libraries."""

import pytest

from repro.geom import Orientation, Rect
from repro.tech import (
    Layer,
    LayerDirection,
    Macro,
    MacroPin,
    PinDirection,
    PinShape,
    Site,
    Technology,
)
from repro.benchgen import build_tech


def test_site_validation():
    with pytest.raises(ValueError):
        Site("bad", 0, 100)


def test_layer_direction_other():
    assert LayerDirection.HORIZONTAL.other is LayerDirection.VERTICAL
    assert LayerDirection.VERTICAL.other is LayerDirection.HORIZONTAL


def test_technology_layer_index_enforced():
    tech = Technology()
    tech.add_layer(Layer("M1", 0, LayerDirection.HORIZONTAL, 200, 60, 140))
    with pytest.raises(ValueError):
        tech.add_layer(Layer("M3", 2, LayerDirection.HORIZONTAL, 200, 60, 140))


def test_technology_lookup():
    tech = build_tech("45nm")
    assert tech.layer_by_name("Metal3").index == 2
    with pytest.raises(KeyError):
        tech.layer_by_name("Metal99")


def test_macro_duplicate_pin_rejected():
    macro = Macro("X", 100, 100)
    macro.add_pin(MacroPin("A", PinDirection.INPUT))
    with pytest.raises(ValueError):
        macro.add_pin(MacroPin("A", PinDirection.INPUT))


def test_build_tech_shapes():
    tech = build_tech("45nm")
    assert tech.num_layers == 9
    assert len(tech.vias) == 8
    assert tech.layers[0].is_horizontal
    assert tech.layers[1].is_vertical
    assert "INV_X1" in tech.macros
    inv = tech.macros["INV_X1"]
    assert inv.width == 2 * tech.default_site().width
    assert set(inv.pins) == {"A", "Y"}


def test_build_tech_32nm_row_height_is_pitch_multiple():
    tech = build_tech("32nm")
    site = tech.default_site()
    assert site.height % tech.layers[0].pitch == 0


def test_unknown_node_rejected():
    with pytest.raises(ValueError):
        build_tech("7nm")


def test_pins_land_on_track_crossings():
    """Pin pads must cover exactly one track crossing in N and FS."""
    for node in ("45nm", "32nm"):
        tech = build_tech(node)
        pitch = tech.layers[0].pitch
        offset = pitch // 2
        for macro in tech.macros.values():
            for pin in macro.pins.values():
                for orient in (Orientation.N, Orientation.FS):
                    placed = pin.placed_shapes(
                        0, 0, orient, macro.width, macro.height
                    )
                    center = Rect.bounding([s.rect for s in placed]).center
                    assert (center.x - offset) % pitch == 0, (node, macro.name, pin.name)
                    assert (center.y - offset) % pitch == 0, (node, macro.name, pin.name)


def test_pins_unique_crossings_within_macro():
    tech = build_tech("45nm")
    for macro in tech.macros.values():
        centers = {
            pin.bbox().center.as_tuple() for pin in macro.pins.values()
        }
        assert len(centers) == len(macro.pins)


def test_placed_pin_shapes_translate():
    tech = build_tech("45nm")
    inv = tech.macros["INV_X1"]
    base = inv.pin("A").bbox()
    placed = inv.pin("A").placed_shapes(1000, 2800, Orientation.N, inv.width, inv.height)
    assert placed[0].rect == base.translated(1000, 2800)
