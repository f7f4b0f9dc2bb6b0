"""Placed component instances."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geom import Orientation, Point, Rect
from repro.tech import Macro, PinShape


@dataclass(slots=True)
class Cell:
    """A placed instance of a macro.

    ``(x, y)`` is the lower-left corner of the placed outline, per DEF
    ``PLACED`` semantics.  Row-based designs only use N/FS orientations, so
    the placed outline always has the macro's width and height.
    """

    name: str
    macro: Macro
    x: int = 0
    y: int = 0
    orient: Orientation = Orientation.N
    fixed: bool = False
    nets: list[str] = field(default_factory=list)

    @property
    def width(self) -> int:
        if self.orient.swaps_axes:
            return self.macro.height
        return self.macro.width

    @property
    def height(self) -> int:
        if self.orient.swaps_axes:
            return self.macro.width
        return self.macro.height

    @property
    def area(self) -> int:
        return self.width * self.height

    def bbox(self) -> Rect:
        return Rect(self.x, self.y, self.x + self.width, self.y + self.height)

    @property
    def center(self) -> Point:
        return Point(self.x + self.width // 2, self.y + self.height // 2)

    def pin_shapes(self, pin_name: str) -> list[PinShape]:
        """Physical shapes of a pin in chip coordinates."""
        pin = self.macro.pin(pin_name)
        return pin.placed_shapes(
            self.x, self.y, self.orient, self.macro.width, self.macro.height
        )

    def pin_position(self, pin_name: str) -> Point:
        """Center of a pin's bounding box in chip coordinates."""
        macro = self.macro
        cx, cy = macro.pin(pin_name).center_offset(
            self.orient, macro.width, macro.height
        )
        return Point(self.x + cx, self.y + cy)

    def obstruction_shapes(self) -> list[PinShape]:
        """Routing obstructions in chip coordinates."""
        from repro.geom import transform_rect

        return [
            PinShape(
                s.layer,
                transform_rect(
                    s.rect, self.orient, self.macro.width, self.macro.height
                ).translated(self.x, self.y),
            )
            for s in self.macro.obstructions
        ]
