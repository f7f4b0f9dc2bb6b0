"""The GCell tiling of the die area."""

from __future__ import annotations

from repro.geom import Point, Rect
from repro.db.design import Design, GCellGridSpec


class GCellGrid:
    """Uniform partition of the die into ``nx`` x ``ny`` GCells.

    GCells are indexed ``(gx, gy)`` with ``(0, 0)`` at the lower-left.
    The 3D routing space of the paper is this tiling replicated on every
    routing layer.
    """

    def __init__(self, spec: GCellGridSpec) -> None:
        self.origin_x = spec.origin_x
        self.origin_y = spec.origin_y
        self.step_x = spec.step_x
        self.step_y = spec.step_y
        self.nx = spec.nx
        self.ny = spec.ny
        if self.nx <= 0 or self.ny <= 0 or self.step_x <= 0 or self.step_y <= 0:
            raise ValueError("degenerate gcell grid")

    @classmethod
    def for_design(cls, design: Design, target_gcells: int = 32) -> "GCellGrid":
        """Build from the design's GCELLGRID, or derive a near-square one.

        ``target_gcells`` controls the derived resolution per axis when the
        DEF does not specify a grid.
        """
        if design.gcell_grid is not None:
            return cls(design.gcell_grid)
        die = design.die
        step_x = max(1, die.width // target_gcells)
        step_y = max(1, die.height // target_gcells)
        spec = GCellGridSpec(
            origin_x=die.lx,
            origin_y=die.ly,
            step_x=step_x,
            step_y=step_y,
            nx=max(1, -(-die.width // step_x)),
            ny=max(1, -(-die.height // step_y)),
        )
        design.gcell_grid = spec
        return cls(spec)

    def gcell_of(self, p: Point) -> tuple[int, int]:
        """Grid index containing point ``p`` (clamped to the grid)."""
        gx = (p.x - self.origin_x) // self.step_x
        gy = (p.y - self.origin_y) // self.step_y
        return (max(0, min(self.nx - 1, gx)), max(0, min(self.ny - 1, gy)))

    def center_of(self, gx: int, gy: int) -> Point:
        """DBU center of GCell ``(gx, gy)``."""
        return Point(
            self.origin_x + gx * self.step_x + self.step_x // 2,
            self.origin_y + gy * self.step_y + self.step_y // 2,
        )

    def rect_of(self, gx: int, gy: int) -> Rect:
        """DBU extent of GCell ``(gx, gy)``."""
        lx = self.origin_x + gx * self.step_x
        ly = self.origin_y + gy * self.step_y
        return Rect(lx, ly, lx + self.step_x, ly + self.step_y)

    def gcells_overlapping(self, rect: Rect) -> list[tuple[int, int]]:
        """All grid indices whose extent intersects ``rect``."""
        gx0, gy0 = self.gcell_of(Point(rect.lx, rect.ly))
        gx1, gy1 = self.gcell_of(Point(max(rect.lx, rect.ux - 1), max(rect.ly, rect.uy - 1)))
        return [
            (gx, gy) for gx in range(gx0, gx1 + 1) for gy in range(gy0, gy1 + 1)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GCellGrid({self.nx}x{self.ny}, step=({self.step_x},{self.step_y}))"
