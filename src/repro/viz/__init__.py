"""Lightweight, dependency-free visualization of placements and routing
(``crp show``).

ASCII renderings for terminals and a minimal SVG writer for reports:
congestion heat maps over the GCell grid, per-layer usage summaries,
and die plots with cells, blockages, and net routes.
"""

from repro.viz.ascii_art import congestion_heatmap, layer_usage_table
from repro.viz.svg import svg_die_plot

__all__ = [
    "congestion_heatmap",
    "layer_usage_table",
    "svg_die_plot",
]
