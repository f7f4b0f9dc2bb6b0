"""A bucket-grid spatial index over placed cells.

The index answers "which cells overlap this window" queries used by the
ILP legalizer and the legality checker without an O(#cells) scan.
"""

from __future__ import annotations

from collections import defaultdict

from repro.geom import Rect


class SpatialIndex:
    """Maps grid buckets to the names of cells whose outline touches them."""

    def __init__(self, die: Rect, bucket: int = 0) -> None:
        if bucket <= 0:
            bucket = max(1, min(die.width, die.height) // 64 or 1)
        self._die = die
        self._bucket = bucket
        self._buckets: dict[tuple[int, int], set[str]] = defaultdict(set)
        self._boxes: dict[str, Rect] = {}

    def _span(self, box: Rect) -> tuple[int, int, int, int]:
        b = self._bucket
        return (box.lx // b, box.ly // b, box.ux // b, box.uy // b)

    def insert(self, name: str, box: Rect) -> None:
        """Add or replace the entry for ``name``."""
        if name in self._boxes:
            self.remove(name)
        self._boxes[name] = box
        bx0, by0, bx1, by1 = self._span(box)
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                self._buckets[(bx, by)].add(name)

    def remove(self, name: str) -> None:
        """Remove ``name``; silently ignores unknown names."""
        box = self._boxes.pop(name, None)
        if box is None:
            return
        bx0, by0, bx1, by1 = self._span(box)
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                self._buckets[(bx, by)].discard(name)

    def move(self, name: str, box: Rect) -> None:
        """Update the entry for ``name`` to a new outline."""
        self.insert(name, box)

    def query(self, window: Rect, strict: bool = True) -> list[str]:
        """Names of cells whose outline intersects ``window`` (sorted,
        so callers iterating the result stay deterministic)."""
        bx0, by0, bx1, by1 = self._span(window)
        candidates: set[str] = set()
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                candidates |= self._buckets.get((bx, by), set())
        return sorted(
            name
            for name in candidates
            if self._boxes[name].intersects(window, strict=strict)
        )

    def overlapping_pairs(self) -> list[tuple[str, str]]:
        """All strictly overlapping cell pairs (for legality checking)."""
        pairs: set[tuple[str, str]] = set()
        for names in self._buckets.values():
            ordered = sorted(names)
            for i, a in enumerate(ordered):
                box_a = self._boxes[a]
                for b in ordered[i + 1 :]:
                    if box_a.intersects(self._boxes[b], strict=True):
                        pairs.add((a, b))
        return sorted(pairs)

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, name: str) -> bool:
        return name in self._boxes
