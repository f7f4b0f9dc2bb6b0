"""Dense Eq. 9/10 cost kernel with prefix sums and lazy invalidation.

:class:`CostField` materializes the Eq. 9 demand and Eq. 10 wire cost of
every wire edge as per-layer numpy arrays (vias cost a flat
``via_weight``, so they need no map), plus a running prefix sum along
each layer's preferred direction so the cost of a straight run of
``n`` edges is two lookups instead of ``n`` scalar ``edge_cost`` calls.

The field registers itself as a :class:`RoutingGraph` listener:
``add_wire``/``add_via``/``apply_route`` mark the touched *line* (the
row or column of edges along the layer's preferred direction) dirty,
and the next query recomputes only the dirty lines — a via change
dirties the two adjacent wire layers because of the ``delta_e``
via-crowding term in Eq. 9.  Rip-up, reroute, and guard-transaction
rollback all mutate the graph through the same methods, so the field
can never observe stale demand.

Bit-parity contract: every value in the dense maps is computed with the
same float64 operations, in the same order, as the scalar
:class:`repro.grid.cost.CostModel` oracle, so ``edge_cost`` lookups and
``path_cost`` sums are *bit-identical* to the scalar path; only the
prefix-sum run costs may differ from a left-to-right scalar sum by
float association (the parity tests pin this to 1e-9).
"""

from __future__ import annotations

import numpy as np

from repro.grid.cost import CostParams, m2_pitch, wire_edge_dists
from repro.grid.graph import EdgeKind, GridEdge, RoutingGraph
from repro.obs import get_metrics


class CostField:
    """Vectorized Eq. 10 cost maps over a :class:`RoutingGraph`."""

    def __init__(
        self, graph: RoutingGraph, params: CostParams | None = None
    ) -> None:
        self.graph = graph
        self.params = params or CostParams()
        #: flat Eq. 10 cost of any via edge
        self.via_cost = self.params.via_weight
        self._wire_dist = wire_edge_dists(
            graph.grid, graph.tech, m2_pitch(graph.tech)
        )
        self._horizontal = tuple(
            layer.is_horizontal for layer in graph.tech.layers
        )
        num_layers = graph.num_layers
        self._wire_cost: list[np.ndarray] = []
        self._demand: list[np.ndarray] = []
        self._prefix: list[np.ndarray] = []
        for layer in range(num_layers):
            shape = graph.wire_edge_shape(layer)
            self._wire_cost.append(np.zeros(shape, dtype=np.float64))
            self._demand.append(np.zeros(shape, dtype=np.float64))
            if self._horizontal[layer]:
                prefix_shape = (shape[0] + 1, shape[1])
            else:
                prefix_shape = (shape[0], shape[1] + 1)
            self._prefix.append(np.zeros(prefix_shape, dtype=np.float64))
        #: dirty line indices per layer (gy on horizontal layers, gx on
        #: vertical ones); ``_all_dirty`` short-circuits line tracking
        self._dirty_lines: list[set[int]] = [set() for _ in range(num_layers)]
        self._all_dirty = [True] * num_layers
        # Stats are plain ints (no registry lock in hot paths); they are
        # flushed as cost_field.* metrics by publish_metrics().
        self._ensures = 0
        self._hits = 0
        self._flushes = 0
        self._lines_recomputed = 0
        self._tiles_recomputed = 0
        self._tiles_total = sum(
            int(a.size) for a in self._wire_cost
        )
        graph.add_listener(self)

    # -------------------------------------------------- graph notifications

    def note_wire(self, layer: int, gx: int, gy: int) -> None:
        """Wire usage changed on edge ``(gx, gy)`` of ``layer``."""
        if not self._all_dirty[layer]:
            self._dirty_lines[layer].add(
                gy if self._horizontal[layer] else gx
            )

    def note_via(self, layer: int, gx: int, gy: int) -> None:
        """Via count changed between ``layer`` and ``layer + 1`` at a GCell.

        The Eq. 9 ``delta_e`` term makes both adjacent wire layers stale:
        every wire edge touching the GCell lies on one line per layer.
        """
        for wire_layer in (layer, layer + 1):
            if 0 <= wire_layer < self.graph.num_layers and not self._all_dirty[
                wire_layer
            ]:
                self._dirty_lines[wire_layer].add(
                    gy if self._horizontal[wire_layer] else gx
                )

    def note_all(self) -> None:
        """Invalidate the whole field (fixed-usage rebuild, rollback)."""
        for layer in range(self.graph.num_layers):
            self._all_dirty[layer] = True
            self._dirty_lines[layer].clear()

    # ------------------------------------------------------------- freshness

    def ensure(self) -> None:
        """Recompute every dirty slice; afterwards all maps are current."""
        self._ensures += 1
        clean = True
        for layer in range(self.graph.num_layers):
            if self._all_dirty[layer]:
                self._flush(layer, None)
                clean = False
            elif self._dirty_lines[layer]:
                self._flush(layer, sorted(self._dirty_lines[layer]))
                clean = False
        if clean:
            self._hits += 1

    def _flush(self, layer: int, lines: list[int] | None) -> None:
        self._flushes += 1
        self._recompute(layer, lines)
        self._all_dirty[layer] = False
        self._dirty_lines[layer].clear()

    def _recompute(self, layer: int, lines: list[int] | None) -> None:
        """Rebuild demand/cost/prefix for ``lines`` (``None`` = whole layer).

        Every arithmetic step mirrors :meth:`RoutingGraph.demand` +
        :meth:`CostModel.edge_cost` operation-for-operation so the dense
        values are bit-identical to the scalar oracle.
        """
        graph = self.graph
        cost = self._wire_cost[layer]
        if cost.size == 0:
            return
        horizontal = self._horizontal[layer]
        # A single dirty line (the common incremental case) uses basic
        # indexing — 1D views instead of fancy-index copies.
        if lines is None:
            sel = np.s_[:, :]
        elif horizontal:
            sel = np.s_[:, lines[0]] if len(lines) == 1 else np.s_[:, lines]
        else:
            sel = np.s_[lines[0], :] if len(lines) == 1 else np.s_[lines, :]
        # Via crowding per GCell of the selected lines (Eq. 9 delta_e).
        below = graph.via_usage[layer - 1] if layer >= 1 else None
        above = (
            graph.via_usage[layer]
            if layer < graph.num_layers - 1
            else None
        )
        if below is not None and above is not None:
            via_count = below[sel] + above[sel]
        elif below is not None:
            via_count = below[sel]
        elif above is not None:
            via_count = above[sel]
        else:
            via_count = np.zeros(
                (graph.grid.nx, graph.grid.ny), dtype=np.int32
            )[sel]
        if via_count.ndim == 1:
            # Single-line selection collapsed the cross axis; the edge
            # axis is all that remains.
            v_src, v_dst = via_count[:-1], via_count[1:]
        elif horizontal:
            v_src, v_dst = via_count[:-1, :], via_count[1:, :]
        else:
            v_src, v_dst = via_count[:, :-1], via_count[:, 1:]
        delta = np.sqrt((v_src + v_dst) / 2.0)
        demand = (
            graph.wire_usage[layer][sel]
            + graph.fixed_usage[layer][sel]
            + graph.beta * delta
        )
        capacity = graph.wire_capacity[layer][sel]
        params = self.params
        if params.use_penalty:
            x = params.slope * (demand - capacity)
            with np.errstate(over="ignore"):
                penalty = 1.0 / (1.0 + np.exp(-x))
            penalty[x > 60.0] = 1.0
            penalty[x < -60.0] = 0.0
        else:
            penalty = np.zeros_like(demand)
        unit = params.wire_weight * self._wire_dist[layer]
        line_cost = unit * (1.0 + penalty)
        self._demand[layer][sel] = demand
        cost[sel] = line_cost
        prefix = self._prefix[layer]
        if horizontal:
            if lines is None:
                prefix[1:, :] = np.cumsum(line_cost, axis=0)
            elif len(lines) == 1:
                prefix[1:, lines[0]] = np.cumsum(line_cost)
            else:
                prefix[1:, lines] = np.cumsum(line_cost, axis=0)
        else:
            if lines is None:
                prefix[:, 1:] = np.cumsum(line_cost, axis=1)
            elif len(lines) == 1:
                prefix[lines[0], 1:] = np.cumsum(line_cost)
            else:
                prefix[lines, 1:] = np.cumsum(line_cost, axis=1)
        self._lines_recomputed += (
            cost.shape[1 if horizontal else 0]
            if lines is None
            else len(lines)
        )
        self._tiles_recomputed += int(demand.size)

    # --------------------------------------------------------------- queries

    def wire_cost_maps(self) -> list[np.ndarray]:
        """Per-layer Eq. 10 wire-edge cost arrays (refreshed first)."""
        self.ensure()
        return self._wire_cost

    def demand_maps(self) -> list[np.ndarray]:
        """Per-layer Eq. 9 demand arrays, via term included."""
        self.ensure()
        return self._demand

    def edge_cost(self, edge: GridEdge) -> float:
        """Eq. 10 cost of one edge — bit-identical to the scalar oracle."""
        if edge.kind is EdgeKind.VIA:
            return self.via_cost
        self.ensure()
        return float(self._wire_cost[edge.layer][edge.gx, edge.gy])

    def path_cost(self, edges: list[GridEdge]) -> float:
        """Total route cost, summed left-to-right like the scalar oracle."""
        self.ensure()
        return self.fresh_path_cost(edges)

    def fresh_path_cost(self, edges: list[GridEdge]) -> float:
        """:meth:`path_cost` without the refresh: the caller has just
        called :meth:`ensure` (the :meth:`run_cost` contract)."""
        total = 0.0
        via_cost = self.via_cost
        wire_cost = self._wire_cost
        for edge in edges:
            if edge.kind is EdgeKind.VIA:
                total += via_cost
            else:
                total += float(wire_cost[edge.layer][edge.gx, edge.gy])
        return total

    def run_cost(self, layer: int, start: int, end: int, line: int) -> float:
        """Cost of wire edges ``[start, end)`` along ``layer`` on ``line``.

        ``line`` is the gy of a horizontal run (edges vary in gx) or the
        gx of a vertical run.  Two prefix lookups — O(1) regardless of
        run length.  Call :meth:`ensure` (or any map query) first when
        the graph may have changed; :class:`PatternRouter3D` refreshes
        once per ``route()`` call, ``GlobalRouter`` once per segment.
        """
        prefix = self._prefix[layer]
        if self._horizontal[layer]:
            return float(prefix[end, line] - prefix[start, line])
        return float(prefix[line, end] - prefix[line, start])

    def run_cost_batch(
        self,
        layers: list[int],
        starts: np.ndarray,
        ends: np.ndarray,
        lines: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`run_cost` over a ``layers`` x runs grid.

        Run ``k`` covers wire edges ``[starts[k], ends[k])`` on line
        ``lines[k]``; all ``layers`` share one preferred direction.  The
        result is a float64 array of shape ``(len(layers), len(starts))``
        whose every element is the same two-lookup prefix difference
        :meth:`run_cost` would return (one subtraction per element, so
        the values are bit-identical).  The caller must :meth:`ensure`
        freshness first.
        """
        out = np.empty((len(layers), len(starts)), dtype=np.float64)
        for i, layer in enumerate(layers):
            prefix = self._prefix[layer]
            if self._horizontal[layer]:
                out[i] = prefix[ends, lines] - prefix[starts, lines]
            else:
                out[i] = prefix[lines, ends] - prefix[lines, starts]
        return out

    def overflow_edges(self) -> list[GridEdge]:
        """Wire edges with Eq. 9 demand strictly above capacity.

        Vectorized replacement for the per-edge RRR scan: one
        ``demand > capacity`` mask and ``np.argwhere`` per layer, in
        (layer, gx, gy) order.
        """
        self.ensure()
        result: list[GridEdge] = []
        for layer in range(self.graph.num_layers):
            demand = self._demand[layer]
            if demand.size == 0:
                continue
            over = np.argwhere(demand > self.graph.wire_capacity[layer])
            result.extend(
                GridEdge(layer, int(gx), int(gy), EdgeKind.WIRE)
                for gx, gy in over
            )
        return result

    # --------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush the locally-tallied stats as ``cost_field.*`` metrics.

        Counters are deltas since the last publish; the ratios are
        lifetime aggregates.  Hot paths never touch the registry.
        """
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("cost_field.recomputes", self._flushes)
        metrics.count("cost_field.lines_recomputed", self._lines_recomputed)
        metrics.count("cost_field.queries", self._ensures)
        if self._ensures:
            metrics.gauge(
                "cost_field.hit_rate", self._hits / self._ensures
            )
        if self._tiles_total and self._flushes:
            metrics.gauge(
                "cost_field.dirty_ratio",
                self._tiles_recomputed / (self._tiles_total * self._flushes),
            )
        self._flushes = 0
        self._lines_recomputed = 0
        self._ensures = 0
        self._hits = 0
