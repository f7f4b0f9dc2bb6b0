"""The 3D GCell routing graph ``G`` with per-edge capacity and demand.

Every routing layer replicates the GCell tiling; wire edges connect
adjacent GCells along the layer's preferred direction, and via edges
connect vertically adjacent layers at each GCell.  Demand follows Eq. 9
of the paper:

    D_e = U_w(e) + U_f(e) + beta * delta_e,
    delta_e = sqrt((V_src + V_dst) / 2)

where ``U_w`` is routed-wire usage, ``U_f`` fixed-component usage, and
``delta_e`` a probabilistic via-crowding estimate inspired by CUGR.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.db.design import Design
from repro.grid.gcellgrid import GCellGrid
from repro.tech import Technology


class EdgeKind(str, Enum):
    """The two edge species of the 3D graph (str-based so edges sort)."""

    WIRE = "wire"
    VIA = "via"


@dataclass(frozen=True, slots=True, order=True)
class GridEdge:
    """One edge of the 3D GCell graph.

    For ``WIRE`` edges on a horizontal layer the edge joins ``(gx, gy)``
    to ``(gx + 1, gy)``; on a vertical layer it joins ``(gx, gy)`` to
    ``(gx, gy + 1)``.  For ``VIA`` edges it joins layer ``layer`` to
    ``layer + 1`` at ``(gx, gy)``.
    """

    layer: int
    gx: int
    gy: int
    kind: EdgeKind

    def endpoints(self, graph: "RoutingGraph") -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The two ``(layer, gx, gy)`` nodes this edge joins."""
        if self.kind is EdgeKind.VIA:
            return ((self.layer, self.gx, self.gy), (self.layer + 1, self.gx, self.gy))
        if graph.tech.layers[self.layer].is_horizontal:
            return ((self.layer, self.gx, self.gy), (self.layer, self.gx + 1, self.gy))
        return ((self.layer, self.gx, self.gy), (self.layer, self.gx, self.gy + 1))


def flat_views(
    shapes: list[tuple[int, int]], dtype
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zeroed flat buffer holding a 2-D array per shape, back to back,
    plus one spare trailing slot; returns it with the per-shape views.

    The spare slot is where padded gather/scatter indices point
    (:class:`repro.grid.field.CostField`): no view covers it.
    """
    sizes = [a * b for a, b in shapes]
    flat = np.zeros(sum(sizes) + 1, dtype=dtype)
    views: list[np.ndarray] = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return flat, views


class RoutingGraph:
    """Capacity/demand bookkeeping for the 3D GCell graph.

    Wire usage, fixed usage, capacity and via counts are dense numpy
    arrays, one per layer, so whole-map congestion queries are
    vectorized.  The per-layer arrays of one quantity are *views* into
    one flat buffer (``wire_usage_flat`` etc., see :func:`flat_views`)
    that the cost field gathers from across layers in one call, so a
    list entry must never be rebound: write through it
    (``arr[...] = saved``, as ``repro.ckpt`` restores do).
    """

    def __init__(
        self,
        grid: GCellGrid,
        tech: Technology,
        beta: float = 1.5,
        min_wire_layer: int = 1,
    ) -> None:
        self.grid = grid
        self.tech = tech
        self.beta = beta
        #: usage-change listeners (e.g. CostField); a tuple so the notify
        #: loops in the mutators iterate without allocation
        self._listeners: tuple = ()
        #: lowest layer wires may run on (M1 is reserved for pin access,
        #: as in CUGR/TritonRoute default configurations)
        self.min_wire_layer = min_wire_layer
        self.num_layers = tech.num_layers
        nx, ny = grid.nx, grid.ny
        shapes = [
            (max(0, nx - 1), ny) if layer.is_horizontal else (nx, max(0, ny - 1))
            for layer in tech.layers
        ]
        self.wire_capacity_flat, self.wire_capacity = flat_views(shapes, np.float64)
        self.wire_usage_flat, self.wire_usage = flat_views(shapes, np.float64)
        self.fixed_usage_flat, self.fixed_usage = flat_views(shapes, np.float64)
        #: vias between layer l and l+1 per gcell; index l in [0, L-2]
        self.via_usage_flat, self.via_usage = flat_views(
            [(nx, ny)] * (self.num_layers - 1), np.int32
        )
        for layer, capacity in zip(tech.layers, self.wire_capacity):
            step = grid.step_y if layer.is_horizontal else grid.step_x
            capacity[...] = max(1, step // layer.pitch)

    # -------------------------------------------------------------- listeners

    def add_listener(self, listener) -> None:
        """Subscribe to usage changes.

        ``listener`` must provide ``note_wire(layer, gx, gy)``,
        ``note_via(layer, gx, gy)`` (via between ``layer``/``layer + 1``),
        and ``note_all()``.  Every mutator below notifies, so derived
        caches (the :class:`repro.grid.field.CostField` cost maps) stay
        coherent through rip-up and transaction rollback for free.
        """
        self._listeners = (*self._listeners, listener)

    # ------------------------------------------------------------- topology

    def wire_edge_shape(self, layer: int) -> tuple[int, int]:
        return self.wire_capacity[layer].shape  # type: ignore[return-value]

    def valid_wire_edge(self, edge: GridEdge) -> bool:
        if edge.kind is not EdgeKind.WIRE:
            return False
        shape = self.wire_edge_shape(edge.layer)
        return 0 <= edge.gx < shape[0] and 0 <= edge.gy < shape[1]

    def valid_via_edge(self, edge: GridEdge) -> bool:
        return (
            edge.kind is EdgeKind.VIA
            and 0 <= edge.layer < self.num_layers - 1
            and 0 <= edge.gx < self.grid.nx
            and 0 <= edge.gy < self.grid.ny
        )

    def neighbors(
        self, node: tuple[int, int, int]
    ) -> list[tuple[tuple[int, int, int], GridEdge]]:
        """Adjacent nodes with the edge that reaches them (for maze search)."""
        layer, gx, gy = node
        result: list[tuple[tuple[int, int, int], GridEdge]] = []
        tech_layer = self.tech.layers[layer]
        if layer < self.min_wire_layer:
            pass  # no wire moves below the first routing layer
        elif tech_layer.is_horizontal:
            if gx + 1 < self.grid.nx:
                result.append(
                    ((layer, gx + 1, gy), GridEdge(layer, gx, gy, EdgeKind.WIRE))
                )
            if gx - 1 >= 0:
                result.append(
                    ((layer, gx - 1, gy), GridEdge(layer, gx - 1, gy, EdgeKind.WIRE))
                )
        else:
            if gy + 1 < self.grid.ny:
                result.append(
                    ((layer, gx, gy + 1), GridEdge(layer, gx, gy, EdgeKind.WIRE))
                )
            if gy - 1 >= 0:
                result.append(
                    ((layer, gx, gy - 1), GridEdge(layer, gx, gy - 1, EdgeKind.WIRE))
                )
        if layer + 1 < self.num_layers:
            result.append(
                ((layer + 1, gx, gy), GridEdge(layer, gx, gy, EdgeKind.VIA))
            )
        if layer - 1 >= 0:
            result.append(
                ((layer - 1, gx, gy), GridEdge(layer - 1, gx, gy, EdgeKind.VIA))
            )
        return result

    # --------------------------------------------------------------- updates

    def add_wire(self, edge: GridEdge, amount: float = 1.0) -> None:
        """Record routed-wire usage on a wire edge."""
        if not self.valid_wire_edge(edge):
            raise ValueError(f"invalid wire edge {edge}")
        self.wire_usage[edge.layer][edge.gx, edge.gy] += amount
        for listener in self._listeners:
            listener.note_wire(edge.layer, edge.gx, edge.gy)

    def remove_wire(self, edge: GridEdge, amount: float = 1.0) -> None:
        self.wire_usage[edge.layer][edge.gx, edge.gy] -= amount
        for listener in self._listeners:
            listener.note_wire(edge.layer, edge.gx, edge.gy)

    def add_via(self, edge: GridEdge, amount: int = 1) -> None:
        """Record a via between ``edge.layer`` and ``edge.layer + 1``."""
        if not self.valid_via_edge(edge):
            raise ValueError(f"invalid via edge {edge}")
        self.via_usage[edge.layer][edge.gx, edge.gy] += amount
        for listener in self._listeners:
            listener.note_via(edge.layer, edge.gx, edge.gy)

    def remove_via(self, edge: GridEdge, amount: int = 1) -> None:
        self.via_usage[edge.layer][edge.gx, edge.gy] -= amount
        for listener in self._listeners:
            listener.note_via(edge.layer, edge.gx, edge.gy)

    def apply_route(self, edges: Iterable[GridEdge], sign: int = 1) -> None:
        """Commit (+1) or rip up (-1) a whole route's usage, in any order."""
        listeners = self._listeners
        for edge in edges:
            if edge.kind is EdgeKind.WIRE:
                self.wire_usage[edge.layer][edge.gx, edge.gy] += sign
                for listener in listeners:
                    listener.note_wire(edge.layer, edge.gx, edge.gy)
            else:
                self.via_usage[edge.layer][edge.gx, edge.gy] += sign
                for listener in listeners:
                    listener.note_via(edge.layer, edge.gx, edge.gy)

    # ---------------------------------------------------------- fixed usage

    def init_fixed_usage(self, design: Design) -> None:
        """Derive ``U_f`` from routing blockages and macro obstructions.

        A per-GCell blocked-track count is accumulated first; each wire
        edge then takes the *maximum* of its two endpoint GCells, capped
        at the edge capacity (a blockage can never remove more tracks
        than exist).
        """
        nx, ny = self.grid.nx, self.grid.ny
        blocked = [np.zeros((nx, ny), dtype=np.float64) for _ in range(self.num_layers)]
        rects = [(b.layer, b.rect) for b in design.routing_blockages()]
        for cell in design.cells.values():
            if not cell.fixed:
                continue
            rects.extend((s.layer, s.rect) for s in cell.obstruction_shapes())
        for layer, rect in rects:
            tech_layer = self.tech.layers[layer]
            for gx, gy in self.grid.gcells_overlapping(rect):
                overlap = rect.intersection(self.grid.rect_of(gx, gy))
                if overlap is None:
                    continue
                if tech_layer.is_horizontal:
                    tracks = overlap.height / max(1, tech_layer.pitch)
                    frac = min(1.0, overlap.width / self.grid.step_x)
                else:
                    tracks = overlap.width / max(1, tech_layer.pitch)
                    frac = min(1.0, overlap.height / self.grid.step_y)
                blocked[layer][gx, gy] += tracks * frac
        for layer in range(self.num_layers):
            if self.tech.layers[layer].is_horizontal:
                per_edge = np.maximum(blocked[layer][:-1, :], blocked[layer][1:, :])
            else:
                per_edge = np.maximum(blocked[layer][:, :-1], blocked[layer][:, 1:])
            self.fixed_usage[layer][:] = np.minimum(
                per_edge, self.wire_capacity[layer]
            )
        for listener in self._listeners:
            listener.note_all()

    # ------------------------------------------------------ demand (Eq. 9)

    def _via_count_at(self, layer: int, gx: int, gy: int) -> int:
        """Total vias touching GCell ``(gx, gy)`` on ``layer``."""
        count = 0
        if layer - 1 >= 0:
            count += int(self.via_usage[layer - 1][gx, gy])
        if layer < self.num_layers - 1:
            count += int(self.via_usage[layer][gx, gy])
        return count

    def demand(self, edge: GridEdge) -> float:
        """Eq. 9 demand of a wire edge."""
        if edge.kind is not EdgeKind.WIRE:
            raise ValueError("demand is defined for wire edges")
        (l0, x0, y0), (l1, x1, y1) = edge.endpoints(self)
        assert l0 == l1
        v_src = self._via_count_at(l0, x0, y0)
        v_dst = self._via_count_at(l1, x1, y1)
        delta = math.sqrt((v_src + v_dst) / 2.0)
        return (
            float(self.wire_usage[edge.layer][edge.gx, edge.gy])
            + float(self.fixed_usage[edge.layer][edge.gx, edge.gy])
            + self.beta * delta
        )

    def capacity(self, edge: GridEdge) -> float:
        if edge.kind is not EdgeKind.WIRE:
            raise ValueError("capacity is defined for wire edges")
        return float(self.wire_capacity[edge.layer][edge.gx, edge.gy])

    # ----------------------------------------------------------- congestion

    def overflow(self) -> float:
        """Total max(demand - capacity, 0) over all wire edges.

        Uses the cheap (no via term) demand for a vectorized whole-map
        number; the via term matters for routing costs, not this summary.
        """
        total = 0.0
        for layer in range(self.num_layers):
            over = self.wire_usage[layer] + self.fixed_usage[layer] - self.wire_capacity[layer]
            total += float(np.maximum(over, 0.0).sum())
        return total

    def congestion_map(self) -> np.ndarray:
        """Per-GCell max utilization (demand/capacity) over all layers."""
        result = np.zeros((self.grid.nx, self.grid.ny), dtype=np.float64)
        for layer in range(self.num_layers):
            usage = self.wire_usage[layer] + self.fixed_usage[layer]
            util = usage / np.maximum(self.wire_capacity[layer], 1e-9)
            if self.tech.layers[layer].is_horizontal:
                if util.shape[0] == 0:
                    continue
                result[:-1, :] = np.maximum(result[:-1, :], util)
                result[1:, :] = np.maximum(result[1:, :], util)
            else:
                if util.shape[1] == 0:
                    continue
                result[:, :-1] = np.maximum(result[:, :-1], util)
                result[:, 1:] = np.maximum(result[:, 1:], util)
        return result

    def total_vias(self) -> int:
        return int(sum(v.sum() for v in self.via_usage))

    def total_wire_dbu(self) -> int:
        """Total routed wire length in DBU (edge count x gcell step)."""
        total = 0
        for layer, usage in enumerate(self.wire_usage):
            step = (
                self.grid.step_x
                if self.tech.layers[layer].is_horizontal
                else self.grid.step_y
            )
            total += int(usage.sum()) * step
        return total
