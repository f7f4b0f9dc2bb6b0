"""Nets, net pins, and chip-level I/O pins."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geom import Point, Rect
from repro.tech import PinDirection


@dataclass(frozen=True, slots=True)
class NetPin:
    """One terminal of a net.

    ``cell`` names a component and ``pin`` a macro pin; for chip I/O
    terminals ``cell`` is ``None`` and ``pin`` names an :class:`IOPin`.
    """

    cell: str | None
    pin: str

    def key(self) -> str:
        if self.cell is None:
            return f"PIN/{self.pin}"
        return f"{self.cell}/{self.pin}"


@dataclass(slots=True)
class Net:
    """A signal net connecting component pins and/or chip I/O pins."""

    name: str
    pins: list[NetPin] = field(default_factory=list)

    def add_pin(self, pin: NetPin) -> None:
        self.pins.append(pin)

    @property
    def degree(self) -> int:
        return len(self.pins)

    def cells(self) -> list[str]:
        """Names of the distinct components on this net."""
        seen: dict[str, None] = {}
        for p in self.pins:
            if p.cell is not None:
                seen.setdefault(p.cell)
        return list(seen)


@dataclass(slots=True)
class IOPin:
    """A chip-level terminal placed on the die boundary."""

    name: str
    point: Point
    layer: int
    rect: Rect
    direction: PinDirection = PinDirection.INPUT
