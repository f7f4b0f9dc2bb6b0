"""The Eq. 10 cost model: a dense cost kernel with prefix sums and lazy
invalidation.

    cost_e = Unit_e * Dist(e) * (1 + penalty(e))

``Unit_e`` is the ISPD-2018 metric weight of the edge species (wire
``WIRE_WEIGHT`` per M2-pitch of length, via ``VIA_WEIGHT`` per cut),
``Dist(e)`` the Manhattan distance between GCell centers, and
``penalty(e)`` a logistic function of Eq. 9 demand versus capacity.

Note on the penalty sign: the paper prints ``1 / (1 + exp(S * (D_e -
C_e)))``, which *decreases* as demand exceeds capacity — a typo, since
the text says increasing ``S`` causes "faster overflow in an edge" (the
penalty must grow with congestion, as in NTHU-Route [22]).  We implement
the intended ``1 / (1 + exp(-S * (D_e - C_e)))``.

:class:`CostField` materializes the Eq. 9 demand and Eq. 10 wire cost of
every wire edge as per-layer numpy arrays (vias cost a flat
``VIA_WEIGHT``, so they need no map), plus a running prefix sum along
each layer's preferred direction so the cost of a straight run of
``n`` edges is two lookups instead of ``n`` per-edge sums.

The field registers itself as a :class:`RoutingGraph` listener:
``apply_route`` hands it the set of *rows* (one line — the row or
column of edges along the preferred direction — of one layer) the
route's edges dirty, read from the graph's per-id table, and the next
query recomputes the dirty rows of all layers in one gather -> compute
-> scatter over flat buffers — a via change dirties a row on each of
the two adjacent wire layers because of the ``delta_e`` via-crowding
term in Eq. 9.  Commit, rip-up, reroute and guard-transaction rollback
all mutate the graph through ``apply_route``, so the field can never
observe stale demand.  The cost buffer shares the wire-usage layout, so
a wire edge's id is also the index of its cost.

Bit-parity contract: every value in the dense maps is computed with the
same float64 operations, in the same order, as the scalar per-edge
reference model in ``tests/oracles/field.py``, so ``edge_cost`` lookups
and ``path_cost`` sums are *bit-identical* to it; only the
prefix-sum run costs may differ from a left-to-right scalar sum by float
association (the parity tests pin this to 1e-9).
"""

from __future__ import annotations

import numpy as np

from repro.grid.gcellgrid import GCellGrid
from repro.grid.graph import RoutingGraph, flat_views
from repro.obs import get_metrics
from repro.tech import Technology

#: ISPD-2018 evaluation weights the paper cites to explain why via
#: reduction dominates: 0.5 per M2-pitch of wire, 2 per via
WIRE_WEIGHT = 0.5
VIA_WEIGHT = 2.0
#: the logistic slope ``S`` of the Eq. 10 penalty
SLOPE = 1.0


def m2_pitch(tech: Technology) -> int:
    """The wire-length normalization pitch (M2, or M1 on 1-layer stacks)."""
    pitch_layer = min(len(tech.layers) - 1, 1)
    return max(1, tech.layers[pitch_layer].pitch)


def wire_edge_dists(
    grid: GCellGrid, tech: Technology, pitch: int
) -> tuple[float, ...]:
    """Per-layer Eq. 10 ``Dist(e)`` of one wire edge, in M2-pitch units.

    Adjacent-GCell center distance is constant per layer direction
    (``step_x`` on horizontal layers, ``step_y`` on vertical ones), so it
    is computed once per layer, not per edge.
    """
    return tuple(
        (grid.step_x if layer.is_horizontal else grid.step_y) / pitch
        for layer in tech.layers
    )


def _index_views(shapes: list[tuple[int, int]]) -> tuple[list[np.ndarray], int]:
    """Views mapping a 2-D position to its index in a :func:`flat_views`
    buffer of ``shapes`` (whatever that layout is), and the spare slot's."""
    flat, views = flat_views(shapes, np.intp)
    flat[:] = np.arange(flat.size)
    return views, flat.size - 1


class CostField:
    """Vectorized Eq. 10 cost maps over a :class:`RoutingGraph`.

    ``use_penalty=False`` drops the congestion term (length + vias only):
    the penalty ablation and the [18] comparator price with such a field.
    """

    def __init__(self, graph: RoutingGraph, use_penalty: bool = True) -> None:
        self.graph = graph
        self.use_penalty = use_penalty
        #: flat Eq. 10 cost of any via edge
        self.via_cost = VIA_WEIGHT
        #: wire lengths are normalized to this (M2) pitch so wire and via
        #: weights are on the contest's common scale
        self.pitch = m2_pitch(graph.tech)
        self._horizontal = tuple(
            layer.is_horizontal for layer in graph.tech.layers
        )
        num_layers = graph.num_layers
        shapes = [graph.wire_edge_shape(layer) for layer in range(num_layers)]
        self._cost_flat, self._wire_cost = flat_views(shapes, np.float64)
        self._demand_flat, self._demand = flat_views(shapes, np.float64)
        self._prefix_flat, self._prefix = flat_views(
            [
                (ex + 1, ey) if horizontal else (ex, ey + 1)
                for (ex, ey), horizontal in zip(shapes, self._horizontal)
            ],
            np.float64,
        )
        self._build_rows(shapes)
        #: ids of the rows whose usage or via counts changed since the
        #: last :meth:`ensure`
        self._dirty: set[int] = set(range(self._num_rows))
        # Stats are plain ints (no registry lock in hot paths); they are
        # flushed as cost_field.* metrics by publish_metrics().
        self._ensures = 0
        self._hits = 0
        self._flushes = 0
        self._lines_recomputed = 0
        graph.add_listener(self)

    def _build_rows(self, shapes: list[tuple[int, int]]) -> None:
        """One table row per (layer, line), a line being the row or column
        of edges along the layer's preferred direction.

        Row ``_row_base[layer] + line`` holds the flat indices of the
        line's edges (one layout for usage, capacity, demand and cost),
        of the prefix slot after each edge, and of the via counters
        below and above each GCell along it.  Rows are padded to the
        longest line with the buffers' spare slots, and a wire layer
        with no via layer on one side points that side at the (zero) via
        spare slot.  Padding follows the real entries, so nothing a
        view exposes ever depends on it.
        """
        graph = self.graph
        num_layers = graph.num_layers
        edge_ids, edge_spare = _index_views(shapes)
        prefix_ids, prefix_spare = _index_views(
            [view.shape for view in self._prefix]
        )
        via_ids, via_spare = _index_views(
            [view.shape for view in graph.via_usage]
        )
        # Horizontal layers store a line as a column: one line per row.
        edges = [
            ids.T if horizontal else ids
            for ids, horizontal in zip(edge_ids, self._horizontal)
        ]
        lines = [ids.shape[0] for ids in edges]
        width = max(ids.shape[1] for ids in edges)
        self._num_rows = sum(lines)
        self._row_base = [sum(lines[:layer]) for layer in range(num_layers)]
        self._edge_idx = np.full((self._num_rows, width), edge_spare)
        self._prefix_idx = np.full((self._num_rows, width), prefix_spare)
        self._below_idx = np.full((self._num_rows, width + 1), via_spare)
        self._above_idx = self._below_idx.copy()
        #: ``wire_weight * Dist(e)`` of each row's layer, as a column
        self._unit = np.empty((self._num_rows, 1), dtype=np.float64)
        wire_dist = wire_edge_dists(graph.grid, graph.tech, self.pitch)
        for layer, horizontal in enumerate(self._horizontal):
            rows = slice(self._row_base[layer], self._row_base[layer] + lines[layer])
            # the slot after each edge: skip each prefix line's leading zero
            after = prefix_ids[layer][1:, :].T if horizontal else prefix_ids[layer][:, 1:]
            self._edge_idx[rows, : after.shape[1]] = edges[layer]
            self._prefix_idx[rows, : after.shape[1]] = after
            for table, cut in ((self._below_idx, layer - 1), (self._above_idx, layer)):
                if 0 <= cut < num_layers - 1:
                    gcells = via_ids[cut].T if horizontal else via_ids[cut]
                    table[rows, : gcells.shape[1]] = gcells
            self._unit[rows] = WIRE_WEIGHT * wire_dist[layer]

    # -------------------------------------------------- graph notifications

    def note_rows(self, rows: set[int]) -> None:
        """Usage or via counts changed on these rows (``RoutingGraph.edge_rows``)."""
        self._dirty.update(rows)

    def note_all(self) -> None:
        """Invalidate the whole field (fixed-usage rebuild, rollback)."""
        self._dirty.update(range(self._num_rows))

    # ------------------------------------------------------------- freshness

    def ensure(self) -> None:
        """Recompute every dirty row; afterwards all maps are current."""
        self._ensures += 1
        if not self._dirty:
            self._hits += 1
            return
        self._flushes += 1
        self._recompute(sorted(self._dirty))
        self._dirty.clear()

    def _recompute(self, rows: list[int]) -> None:
        """Rebuild demand/cost/prefix of ``rows``, all layers in one block:
        gather, Eq. 9/10 on ``len(rows) x width``, scatter.

        Every arithmetic step mirrors :meth:`RoutingGraph.demand` + the
        scalar oracle's ``edge_cost`` operation-for-operation so the dense
        values are bit-identical to it.
        """
        graph = self.graph
        edges = self._edge_idx[rows]
        # Via crowding per GCell along each row (Eq. 9 delta_e).
        via = graph.via_usage_flat
        via_count = via[self._below_idx[rows]] + via[self._above_idx[rows]]
        delta = np.sqrt((via_count[:, :-1] + via_count[:, 1:]) / 2.0)
        demand = (
            graph.wire_usage_flat[edges]
            + graph.fixed_usage_flat[edges]
            + graph.beta * delta
        )
        if self.use_penalty:
            x = SLOPE * (demand - graph.wire_capacity_flat[edges])
            with np.errstate(over="ignore"):
                penalty = 1.0 / (1.0 + np.exp(-x))
            penalty[x > 60.0] = 1.0
            penalty[x < -60.0] = 0.0
        else:
            penalty = np.zeros_like(demand)
        line_cost = self._unit[rows] * (1.0 + penalty)
        self._demand_flat[edges] = demand
        self._cost_flat[edges] = line_cost
        self._prefix_flat[self._prefix_idx[rows]] = np.cumsum(line_cost, axis=1)
        self._lines_recomputed += len(rows)

    # --------------------------------------------------------------- queries

    def wire_cost_maps(self) -> list[np.ndarray]:
        """Per-layer Eq. 10 wire-edge cost arrays (refreshed first)."""
        self.ensure()
        return self._wire_cost

    def demand_maps(self) -> list[np.ndarray]:
        """Per-layer Eq. 9 demand arrays, via term included."""
        self.ensure()
        return self._demand

    def edge_cost(self, edge: int) -> float:
        """Eq. 10 cost of one edge id — bit-identical to the scalar oracle."""
        if edge >= self.graph.n_wire:
            return self.via_cost
        self.ensure()
        return self._cost_flat.item(edge)

    def path_cost(self, edges: list[int]) -> float:
        """Total route cost, summed left-to-right like the scalar oracle."""
        self.ensure()
        return self.fresh_path_cost(edges)

    def fresh_path_cost(self, edges: list[int]) -> float:
        """:meth:`path_cost` without the refresh: the caller has just
        called :meth:`ensure` (the :meth:`run_cost_batch` contract).

        An explicit ``+=`` loop in the given order: ``sum()`` compensates
        (Python 3.12+) and numpy's ``sum`` is pairwise, and either would
        change the bits.
        """
        total = 0.0
        via_cost = self.via_cost
        n_wire = self.graph.n_wire
        cost = self._cost_flat.item
        for edge in edges:
            total += cost(edge) if edge < n_wire else via_cost
        return total

    def run_cost_batch(
        self,
        layers: list[int],
        starts: np.ndarray,
        ends: np.ndarray,
        lines: np.ndarray,
    ) -> np.ndarray:
        """Cost of straight wire runs over a ``layers`` x runs grid.

        Run ``k`` covers wire edges ``[starts[k], ends[k])`` on line
        ``lines[k]`` (the gy of a horizontal run, whose edges vary in gx,
        or the gx of a vertical one); all ``layers`` share one preferred
        direction.  The result is a float64 array of shape
        ``(len(layers), len(starts))`` whose every element is one
        two-lookup prefix difference -- O(1) whatever the run's length.
        The caller must :meth:`ensure` freshness first.
        """
        out = np.empty((len(layers), len(starts)), dtype=np.float64)
        for i, layer in enumerate(layers):
            prefix = self._prefix[layer]
            if self._horizontal[layer]:
                out[i] = prefix[ends, lines] - prefix[starts, lines]
            else:
                out[i] = prefix[lines, ends] - prefix[lines, starts]
        return out

    def overflow_edges(self) -> list[int]:
        """Ids of the wire edges with Eq. 9 demand strictly above capacity.

        Vectorized replacement for the per-edge RRR scan: one
        ``demand > capacity`` mask over the flat buffers, in id (=
        (layer, gx, gy)) order.
        """
        self.ensure()
        n_wire = self.graph.n_wire
        over = self._demand_flat[:n_wire] > self.graph.wire_capacity_flat[:n_wire]
        return np.flatnonzero(over).tolist()

    # --------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush the locally-tallied stats as ``cost_field.*`` metrics.

        Everything covers the window since the last publish:
        ``recomputes`` counts flushes (= dirty :meth:`ensure` calls, one
        ``_recompute`` each), ``lines_recomputed`` the rows they rebuilt,
        and ``dirty_ratio`` is the mean share of the field's rows one
        flush rebuilt.  Hot paths never touch the registry.
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
        if self._flushes:
            metrics.gauge(
                "cost_field.dirty_ratio",
                self._lines_recomputed / (self._num_rows * self._flushes),
            )
        self._flushes = 0
        self._lines_recomputed = 0
        self._ensures = 0
        self._hits = 0
