"""Placement rows."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom import Orientation, Rect
from repro.tech import Site


@dataclass(slots=True)
class Row:
    """A DEF ROW: a horizontal strip of abutted placement sites."""

    name: str
    site: Site
    origin_x: int
    origin_y: int
    num_sites: int
    orient: Orientation = Orientation.N
    index: int = 0

    @property
    def y(self) -> int:
        return self.origin_y

    @property
    def height(self) -> int:
        return self.site.height

    @property
    def end_x(self) -> int:
        return self.origin_x + self.num_sites * self.site.width

    def bbox(self) -> Rect:
        return Rect(self.origin_x, self.origin_y, self.end_x, self.origin_y + self.height)

    def site_x(self, site_index: int) -> int:
        """DBU x-coordinate of site ``site_index`` in this row."""
        return self.origin_x + site_index * self.site.width

    def site_index(self, x: int) -> int:
        """Site index containing coordinate ``x`` (floored)."""
        return (x - self.origin_x) // self.site.width

    def contains_x_span(self, lx: int, ux: int) -> bool:
        """True when ``[lx, ux]`` lies inside the row extent."""
        return self.origin_x <= lx and ux <= self.end_x
