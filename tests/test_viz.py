"""Unit tests for the visualization helpers."""

from repro.groute import GlobalRouter
from repro.viz import (
    congestion_heatmap,
    layer_usage_table,
    svg_die_plot,
)

from helpers import fresh_small


def _routed():
    design = fresh_small()
    router = GlobalRouter(design)
    router.route_all()
    return design, router


def test_congestion_heatmap_shape():
    design, router = _routed()
    art = congestion_heatmap(router)
    lines = art.splitlines()
    assert lines[-1].startswith("legend")
    body = lines[:-1]
    assert len(body) == router.grid.ny
    widths = {len(line) for line in body}
    assert widths == {router.grid.nx + 2}  # content + two border pipes
    assert all(line.startswith("|") and line.endswith("|") for line in body)


def test_layer_usage_table_lists_all_layers():
    design, router = _routed()
    table = layer_usage_table(router)
    for layer in design.tech.layers:
        assert layer.name in table
    # Used wire exists somewhere after routing.
    assert any(
        float(line.split()[2]) > 0
        for line in table.splitlines()[1:]
    )


def test_svg_die_plot_well_formed():
    design, router = _routed()
    nets = list(design.nets)[:3]
    svg = svg_die_plot(design, router, nets=nets)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= len(design.cells)
    assert "<line" in svg  # routed nets drawn


def test_svg_without_router():
    design, _ = _routed()
    svg = svg_die_plot(design)
    assert "<line" not in svg
    assert svg.count("<rect") >= len(design.cells)
