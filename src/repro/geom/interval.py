"""1-D integer intervals, used for row free-space bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"malformed Interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval", strict: bool = True) -> bool:
        """True when the intervals share more than a point (``strict``)."""
        if strict:
            return self.lo < other.hi and other.lo < self.hi
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)
