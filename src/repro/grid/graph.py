"""The 3D GCell routing graph ``G``: per-edge capacity, usage and ids.

Every routing layer replicates the GCell tiling; wire edges connect
adjacent GCells along the layer's preferred direction, and via edges
connect vertically adjacent layers at each GCell.  Demand follows Eq. 9
of the paper:

    D_e = U_w(e) + U_f(e) + beta * delta_e,
    delta_e = sqrt((V_src + V_dst) / 2)

where ``U_w`` is routed-wire usage, ``U_f`` fixed-component usage, and
``delta_e`` a probabilistic via-crowding estimate inspired by CUGR;
:class:`repro.grid.field.CostField` evaluates it for every wire edge at
once from the usage arrays kept here.

Every edge has one int id, and a route is a set of ids.  A wire's id is
its index in ``wire_usage_flat``; a via's is ``n_wire`` plus its index
in ``via_usage_flat`` (the spare slots get none).  Tables built once
give each id the cost-field rows it dirties (``edge_rows``), its
canonical order key (``edge_keys``: ``(layer, gx, gy, kind)`` order,
a via before a wire at the same GCell) and its decode back to the
readable :class:`GridEdge` (:meth:`RoutingGraph.edge`).  DESIGN.md,
"GR edge ids", has the layout and the byte-identity rules.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.db.design import Design
from repro.grid.gcellgrid import GCellGrid
from repro.tech import Technology

Node = tuple[int, int, int]  # (layer, gx, gy)


class EdgeKind(str, Enum):
    """The two edge species of the 3D graph (str-based so edges sort)."""

    WIRE = "wire"
    VIA = "via"


@dataclass(frozen=True, slots=True, order=True)
class GridEdge:
    """One edge of the 3D GCell graph, decoded from its id for reading.

    For ``WIRE`` edges on a horizontal layer the edge joins ``(gx, gy)``
    to ``(gx + 1, gy)``; on a vertical layer it joins ``(gx, gy)`` to
    ``(gx, gy + 1)``.  For ``VIA`` edges it joins layer ``layer`` to
    ``layer + 1`` at ``(gx, gy)``.
    """

    layer: int
    gx: int
    gy: int
    kind: EdgeKind

    def __getstate__(self) -> list:
        # What the dataclass-generated one returns, without its per-object
        # ``fields()`` walk: pickled bytes (so ``routes_digest``) are equal.
        return [self.layer, self.gx, self.gy, self.kind]


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
    """Capacity/usage bookkeeping and edge ids of the 3D GCell graph.

    Wire usage, fixed usage, capacity and via counts are dense numpy
    arrays, one per layer, so whole-map congestion queries are
    vectorized.  The per-layer arrays of one quantity are *views* into
    one flat buffer (``wire_usage_flat`` etc., see :func:`flat_views`)
    that the cost field gathers from across layers in one call, so a
    list entry must never be rebound: write through it
    (``arr[...] = values``).
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
        self._build_ids(shapes)

    def _build_ids(self, shapes: list[tuple[int, int]]) -> None:
        """The id layout and the per-id tables (see the module docstring).

        A *row* is the cost field's unit of recompute: one line of edges
        along a layer's preferred direction, numbered layer by layer
        (``CostField._row_base[layer] + line``).  A wire dirties its own
        row; a via the rows through its GCell on both adjacent layers
        (the Eq. 9 ``delta_e`` term).
        """
        nx, ny = self.grid.nx, self.grid.ny
        sizes = [a * b for a, b in shapes]
        #: wire ids are ``[0, n_wire)``, via ids ``[n_wire, num_edges)``
        self.n_wire = sum(sizes)
        self.num_edges = self.n_wire + (self.num_layers - 1) * nx * ny
        self._wire_base = tuple(sum(sizes[:layer]) for layer in range(len(sizes)))
        self._wire_stride = tuple(b for _, b in shapes)
        # (layer, gx, gy) of every id, wires then vias
        wire = np.concatenate([np.indices(shape).reshape(2, -1) for shape in shapes], axis=1)
        via = np.indices((self.num_layers - 1, nx, ny)).reshape(3, -1)
        layer = np.concatenate([np.repeat(np.arange(len(shapes)), sizes), via[0]])
        gx = np.concatenate([wire[0], via[1]])
        gy = np.concatenate([wire[1], via[2]])
        is_wire = np.arange(self.num_edges) < self.n_wire
        #: per id, the canonical order key: ``(layer, gx, gy, kind)`` as one int
        self.edge_keys: tuple[int, ...] = tuple(
            (((layer * nx + gx) * ny + gy) * 2 + is_wire).tolist()
        )
        horizontal = np.array([l.is_horizontal for l in self.tech.layers])
        lines = np.where(horizontal, ny, nx)
        row_base = np.concatenate([[0], np.cumsum(lines)[:-1]])

        def row(layer: np.ndarray) -> np.ndarray:
            return row_base[layer] + np.where(horizontal[layer], gy, gx)

        low = row(layer)
        high = np.where(is_wire, low, row(np.minimum(layer + 1, self.num_layers - 1)))
        #: per id, the cost-field rows a usage change on it dirties
        self.edge_rows: tuple[tuple[int, ...], ...] = tuple(
            (a,) if a == b else (a, b) for a, b in zip(low.tolist(), high.tolist())
        )

    # -------------------------------------------------------------- edge ids

    def wire_id(self, layer: int, gx: int, gy: int) -> int:
        """Id of the wire edge at ``(gx, gy)`` of ``layer`` (unchecked)."""
        return self._wire_base[layer] + gx * self._wire_stride[layer] + gy

    def via_id(self, layer: int, gx: int, gy: int) -> int:
        """Id of the via between ``layer`` and ``layer + 1`` (unchecked)."""
        return self.n_wire + (layer * self.grid.nx + gx) * self.grid.ny + gy

    def wire_run(self, layer: int, lo: int, hi: int, line: int) -> range:
        """Ids of the wire edges ``[lo, hi)`` along ``layer``'s preferred
        direction on ``line`` (a gy on a horizontal layer, else a gx)."""
        stride = self._wire_stride[layer]
        if self.tech.layers[layer].is_horizontal:
            start = self._wire_base[layer] + line
            return range(start + lo * stride, start + hi * stride, stride)
        start = self._wire_base[layer] + line * stride
        return range(start + lo, start + hi)

    def via_stack(self, gx: int, gy: int, lo: int, hi: int) -> range:
        """Ids of the vias joining layers ``lo .. hi`` at ``(gx, gy)``,
        lowest first (``lo > hi`` is the same stack)."""
        if lo > hi:
            lo, hi = hi, lo
        plane = self.grid.nx * self.grid.ny
        start = self.n_wire + gx * self.grid.ny + gy
        return range(start + lo * plane, start + hi * plane, plane)

    def edge_id(self, edge: GridEdge) -> int:
        """The id of a graph edge; ``ValueError`` for one off the graph."""
        layer, gx, gy = edge.layer, edge.gx, edge.gy
        if edge.kind is EdgeKind.WIRE:
            if 0 <= layer < self.num_layers:
                ex, ey = self.wire_edge_shape(layer)
                if 0 <= gx < ex and 0 <= gy < ey:
                    return self.wire_id(layer, gx, gy)
        elif (
            0 <= layer < self.num_layers - 1
            and 0 <= gx < self.grid.nx
            and 0 <= gy < self.grid.ny
        ):
            return self.via_id(layer, gx, gy)
        raise ValueError(f"{edge} is not an edge of the graph")

    def _decode(self, edge: int) -> tuple[int, int, int, int]:
        """``(layer, gx, gy, is_wire)`` of an id, from its order key."""
        rest, is_wire = divmod(self.edge_keys[edge], 2)
        rest, gy = divmod(rest, self.grid.ny)
        layer, gx = divmod(rest, self.grid.nx)
        return layer, gx, gy, is_wire

    def edge(self, edge: int) -> GridEdge:
        """The readable :class:`GridEdge` of an id (a new object per call)."""
        layer, gx, gy, is_wire = self._decode(edge)
        return GridEdge(layer, gx, gy, EdgeKind.WIRE if is_wire else EdgeKind.VIA)

    def endpoints(self, edge: int) -> tuple[Node, Node]:
        """The two ``(layer, gx, gy)`` nodes an edge joins, lower first."""
        layer, gx, gy, is_wire = self._decode(edge)
        if not is_wire:
            return (layer, gx, gy), (layer + 1, gx, gy)
        if self.tech.layers[layer].is_horizontal:
            return (layer, gx, gy), (layer, gx + 1, gy)
        return (layer, gx, gy), (layer, gx, gy + 1)

    def endpoint_arrays(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`endpoints` of many ids at once: ``(layer, gx, gy)``
        arrays of length ``2 * len(ids)``, every lower end, then every
        upper end, each half in the order of ``ids``."""
        nx, ny = self.grid.nx, self.grid.ny
        is_wire = ids < self.n_wire
        wire_base = np.asarray(self._wire_base)
        wire_layer = np.searchsorted(wire_base, ids, side="right") - 1
        wire_local = ids - wire_base[wire_layer]
        # a layer with no wire edges has stride 0 and no ids to divide
        stride = np.maximum(np.asarray(self._wire_stride)[wire_layer], 1)
        plane, via_local = np.divmod(ids - self.n_wire, nx * ny)
        layer = np.where(is_wire, wire_layer, plane)
        gx = np.where(is_wire, wire_local // stride, via_local // ny)
        gy = np.where(is_wire, wire_local % stride, via_local % ny)
        horizontal = np.array([l.is_horizontal for l in self.tech.layers])[layer]
        return (
            np.concatenate([layer, layer + ~is_wire]),
            np.concatenate([gx, gx + (is_wire & horizontal)]),
            np.concatenate([gy, gy + (is_wire & ~horizontal)]),
        )

    def edge_order(self, edges: Iterable[int]) -> list[int]:
        """``edges`` in canonical ``(layer, gx, gy, kind)`` order."""
        return sorted(edges, key=self.edge_keys.__getitem__)

    # -------------------------------------------------------------- listeners

    def add_listener(self, listener) -> None:
        """Subscribe to usage changes.

        ``listener`` must provide ``note_rows(rows)`` (a set of the
        cost-field rows whose usage or via counts changed) and
        ``note_all()``.  Every mutator below notifies, so derived caches
        (the :class:`repro.grid.field.CostField` cost maps) stay coherent
        through rip-up and transaction rollback for free.
        """
        self._listeners = (*self._listeners, listener)

    # ------------------------------------------------------------- topology

    def wire_edge_shape(self, layer: int) -> tuple[int, int]:
        return self.wire_capacity[layer].shape  # type: ignore[return-value]

    # --------------------------------------------------------------- updates

    def apply_route(self, edges: Iterable[int], sign: int = 1) -> None:
        """Commit (+1) or rip up (-1) a route's usage and hand the rows it
        dirtied to the listeners.  ``edges`` are distinct ids, in any
        order."""
        n_wire = self.n_wire
        wire = self.wire_usage_flat
        via = self.via_usage_flat
        edge_rows = self.edge_rows
        rows: set[int] = set()
        for edge in edges:
            if edge < n_wire:
                wire[edge] += sign
            else:
                via[edge - n_wire] += sign
            rows.update(edge_rows[edge])
        for listener in self._listeners:
            listener.note_rows(rows)

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

    # ----------------------------------------------------------- congestion

    def overflow(self) -> float:
        """The reported overflow: total ``max(U_w + U_f - capacity, 0)``
        over all wire edges.

        It leaves out Eq. 9's via term: ``beta * delta_e`` prices routes
        (:meth:`repro.grid.field.CostField.overflow_edges`), while this
        counts the tracks an edge is short of.
        """
        total = 0.0
        for layer in range(self.num_layers):
            over = self.wire_usage[layer] + self.fixed_usage[layer] - self.wire_capacity[layer]
            total += float(np.maximum(over, 0.0).sum())
        return total

    def overflow_edges(self) -> list[int]:
        """Ids of the wire edges :meth:`overflow` sums, in id order: the
        same ``U_w + U_f - capacity > 0`` mask, over the flat buffers."""
        n = self.n_wire
        over = self.wire_usage_flat[:n] + self.fixed_usage_flat[:n] - self.wire_capacity_flat[:n]
        return np.flatnonzero(over > 0.0).tolist()

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
