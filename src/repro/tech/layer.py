"""Routing and cut layers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LayerDirection(Enum):
    """Preferred routing direction of a metal layer."""

    HORIZONTAL = "HORIZONTAL"
    VERTICAL = "VERTICAL"

    @property
    def other(self) -> "LayerDirection":
        if self is LayerDirection.HORIZONTAL:
            return LayerDirection.VERTICAL
        return LayerDirection.HORIZONTAL


@dataclass(slots=True)
class Layer:
    """A metal (routing) layer.

    ``index`` counts routing layers from 0 (lowest metal).  Cut layers are
    implicit: a via connects routing layers ``i`` and ``i + 1``.

    Attributes mirror the LEF fields the detailed router and DRC engine
    need: ``pitch`` spaces the routing tracks, ``width`` is the default
    wire width, ``spacing`` the minimum same-layer spacing, ``min_area``
    the minimum metal polygon area, and ``offset`` the coordinate of track
    0.
    """

    name: str
    index: int
    direction: LayerDirection
    pitch: int
    width: int
    spacing: int
    min_area: int = 0
    offset: int = 0

    @property
    def is_horizontal(self) -> bool:
        return self.direction is LayerDirection.HORIZONTAL

    @property
    def is_vertical(self) -> bool:
        return self.direction is LayerDirection.VERTICAL
