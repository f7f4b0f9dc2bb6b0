"""Geometric primitives used throughout the CR&P reproduction.

All coordinates are integers in database units (DBU).  The convention
follows LEF/DEF: ``x`` grows to the right, ``y`` grows upward, rectangles
are closed-open boxes described by their lower-left and upper-right
corners.
"""

from repro.geom.point import Point, manhattan
from repro.geom.rect import Rect
from repro.geom.orient import Orientation, transform_rect

__all__ = [
    "Point",
    "manhattan",
    "Rect",
    "Orientation",
    "transform_rect",
]
