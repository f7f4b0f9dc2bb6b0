"""The routing-track lattice.

Detailed routing happens on track crossings: node ``(layer, ix, iy)``
sits at the intersection of vertical track ``ix`` and horizontal track
``iy``.  Wires run along a layer's preferred direction between adjacent
crossings; vias connect vertically adjacent layers at a crossing.  With
``pitch >= width + spacing`` (true of the synthetic techs and the
contest's), same-layer parallel wires on distinct tracks are spacing-
clean by construction, so the DRC focus is shorts / min-area / opens.
"""

from __future__ import annotations

from repro.geom import Point, Rect
from repro.tech import Technology

LNode = tuple[int, int, int]  # (layer, ix, iy)


class TrackLattice:
    """Coordinate conversions between DBU space and track indices."""

    def __init__(self, tech: Technology, die: Rect) -> None:
        self.tech = tech
        self.die = die
        pitches = {layer.pitch for layer in tech.layers}
        if len(pitches) != 1:
            raise ValueError("TrackLattice requires a uniform track pitch")
        self.pitch = pitches.pop()
        self.offset = tech.layers[0].offset
        self.nx = max(1, (die.width - self.offset) // self.pitch + 1)
        self.ny = max(1, (die.height - self.offset) // self.pitch + 1)

    def x_of(self, ix: int) -> int:
        return self.die.lx + self.offset + ix * self.pitch

    def y_of(self, iy: int) -> int:
        return self.die.ly + self.offset + iy * self.pitch

    def ix_of(self, x: int) -> int:
        ix = round((x - self.die.lx - self.offset) / self.pitch)
        return max(0, min(self.nx - 1, ix))

    def iy_of(self, y: int) -> int:
        iy = round((y - self.die.ly - self.offset) / self.pitch)
        return max(0, min(self.ny - 1, iy))

    def node_at(self, layer: int, p: Point) -> LNode:
        return (layer, self.ix_of(p.x), self.iy_of(p.y))

    def index_rect(self, rect: Rect) -> tuple[int, int, int, int]:
        """Lattice index span ``(ix0, iy0, ix1, iy1)`` covered by ``rect``."""
        ix0 = max(0, -(-(rect.lx - self.die.lx - self.offset) // self.pitch))
        iy0 = max(0, -(-(rect.ly - self.die.ly - self.offset) // self.pitch))
        ix1 = min(self.nx - 1, (rect.ux - self.die.lx - self.offset) // self.pitch)
        iy1 = min(self.ny - 1, (rect.uy - self.die.ly - self.offset) // self.pitch)
        return (ix0, iy0, ix1, iy1)

    def nodes_in_rect(self, layer: int, rect: Rect) -> list[LNode]:
        ix0, iy0, ix1, iy1 = self.index_rect(rect)
        return [
            (layer, ix, iy)
            for ix in range(ix0, ix1 + 1)
            for iy in range(iy0, iy1 + 1)
        ]

    #: lowest layer wires may run on (M1 is reserved for pin access)
    min_wire_layer: int = 1

    def min_area_nodes(self) -> tuple[int, ...]:
        """Per layer: the track nodes a metal island needs to meet the
        layer's min-area rule as one wire of its width (0 where the layer
        has no rule)."""
        pitch = self.pitch
        return tuple(
            1 + max(0, -(-(l.min_area - l.width**2) // (pitch * l.width)))
            if l.min_area > 0 else 0
            for l in self.tech.layers
        )

    def wire_neighbors(self, node: LNode) -> list[LNode]:
        """Track-adjacent crossings along the layer's preferred direction."""
        layer, ix, iy = node
        result: list[LNode] = []
        if layer < self.min_wire_layer:
            return result
        if self.tech.layers[layer].is_horizontal:
            if ix + 1 < self.nx:
                result.append((layer, ix + 1, iy))
            if ix - 1 >= 0:
                result.append((layer, ix - 1, iy))
        else:
            if iy + 1 < self.ny:
                result.append((layer, ix, iy + 1))
            if iy - 1 >= 0:
                result.append((layer, ix, iy - 1))
        return result

    def jog_neighbors(self, node: LNode) -> list[LNode]:
        """Single-step wrong-way moves (perpendicular to the preferred
        direction), which real detailed routers allow at a cost premium."""
        layer, ix, iy = node
        result: list[LNode] = []
        if layer < self.min_wire_layer:
            return result
        if self.tech.layers[layer].is_horizontal:
            if iy + 1 < self.ny:
                result.append((layer, ix, iy + 1))
            if iy - 1 >= 0:
                result.append((layer, ix, iy - 1))
        else:
            if ix + 1 < self.nx:
                result.append((layer, ix + 1, iy))
            if ix - 1 >= 0:
                result.append((layer, ix - 1, iy))
        return result
