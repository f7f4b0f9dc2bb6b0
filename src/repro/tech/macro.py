"""LEF macros (standard-cell masters) and their pins."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.geom import Orientation, Rect, transform_rect


class PinDirection(Enum):
    """Signal direction of a macro pin."""

    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    INOUT = "INOUT"


@dataclass(frozen=True, slots=True)
class PinShape:
    """One rectangle of a pin's physical geometry on a routing layer."""

    layer: int
    rect: Rect


@dataclass(slots=True)
class MacroPin:
    """A named pin of a macro with its physical shapes (macro-local)."""

    name: str
    direction: PinDirection
    shapes: list[PinShape] = field(default_factory=list)
    #: ``(len(shapes), min layer, {(orient, macro_w, macro_h): (cx, cy)})``,
    #: rebuilt whenever the shape count moved (pins are built by appending)
    _placed: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def bbox(self) -> Rect:
        """Bounding box over all shapes (macro-local coordinates)."""
        return Rect.bounding([s.rect for s in self.shapes])

    def _memo(self) -> tuple:
        memo = self._placed
        if memo is None or memo[0] != len(self.shapes):
            layer = min((s.layer for s in self.shapes), default=0)
            memo = self._placed = (len(self.shapes), layer, {})
        return memo

    @property
    def min_layer(self) -> int:
        """Lowest routing layer carrying a shape (0 for a shapeless pin)."""
        return self._memo()[1]

    def center_offset(
        self, orient: Orientation, macro_w: int, macro_h: int
    ) -> tuple[int, int]:
        """Bounding-box center of the pin placed at the origin.

        ``Rect.center`` floors ``(lo + hi) // 2``, and translating a
        placement by ``(x, y)`` adds ``2x`` / ``2y`` under that floor, so
        the center at ``(x, y)`` is exactly this offset plus ``(x, y)``.
        """
        offsets = self._memo()[2]
        key = (orient, macro_w, macro_h)
        offset = offsets.get(key)
        if offset is None:
            center = Rect.bounding(
                [
                    transform_rect(s.rect, orient, macro_w, macro_h)
                    for s in self.shapes
                ]
            ).center
            offset = offsets[key] = (center.x, center.y)
        return offset

    def placed_shapes(
        self, x: int, y: int, orient: Orientation, macro_w: int, macro_h: int
    ) -> list[PinShape]:
        """Shapes transformed into chip coordinates for a placement."""
        return [
            PinShape(s.layer, transform_rect(s.rect, orient, macro_w, macro_h).translated(x, y))
            for s in self.shapes
        ]


@dataclass(slots=True)
class Macro:
    """A standard-cell master: size, pins, and routing obstructions."""

    name: str
    width: int
    height: int
    pins: dict[str, MacroPin] = field(default_factory=dict)
    obstructions: list[PinShape] = field(default_factory=list)
    site_name: str = ""

    def add_pin(self, pin: MacroPin) -> None:
        if pin.name in self.pins:
            raise ValueError(f"macro {self.name}: duplicate pin {pin.name}")
        self.pins[pin.name] = pin

    def pin(self, name: str) -> MacroPin:
        return self.pins[name]

    @property
    def area(self) -> int:
        return self.width * self.height
