"""Scalar references for the cost field.

``CostModel`` is the Eq. 10 definition, one ``GridEdge`` at a time:
what ``src/repro/grid/cost.py`` held before the field became the only
cost model of the router, moved here unchanged but for reading the
weights and slope from ``repro.grid.field``'s constants.  Every dense
map value of :class:`repro.grid.field.CostField` must equal its
``edge_cost`` bit for bit, and the maze heuristic its ``lower_bound``.
``demand`` / ``capacity`` are the per-edge Eq. 9 queries it prices
with, moved here from ``RoutingGraph`` once routes became edge ids and
nothing in the router asked one edge at a time any more.

``recompute_line`` is ``CostField._recompute`` as it ran when every
dirty line of every layer was rebuilt by its own call on 1-D views
(the single-line branch, moved here unchanged; the whole-layer and
multi-line branches selected the same arithmetic with other slices).
``reference_maps`` rebuilds all three maps of every layer from scratch
with it, into arrays of its own: production, which gathers the dirty
rows of all layers into one block over flat buffers, must hold the same
bits in ``_wire_cost`` / ``_demand`` / ``_prefix`` whatever sequence of
commits, rip-ups, invalidations and rollbacks got it there.
"""

from __future__ import annotations

import numpy as np

import math

from repro.grid import EdgeKind, GridEdge, RoutingGraph
from repro.grid.field import (
    SLOPE,
    VIA_WEIGHT,
    WIRE_WEIGHT,
    m2_pitch,
    wire_edge_dists,
)


def logistic(x: float) -> float:
    """Clamped logistic ``1 / (1 + exp(-x))`` used by the Eq. 10 penalty.

    Uses ``np.exp`` (not ``math.exp``) so the scalar oracle and the
    vectorized kernel round identically — numpy's scalar and array exp
    agree bit-for-bit, while libm's may differ by one ulp.
    """
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return float(1.0 / (1.0 + np.exp(-x)))


def via_count_at(graph: RoutingGraph, layer: int, gx: int, gy: int) -> int:
    """Total vias touching GCell ``(gx, gy)`` on ``layer``."""
    count = 0
    if layer - 1 >= 0:
        count += int(graph.via_usage[layer - 1][gx, gy])
    if layer < graph.num_layers - 1:
        count += int(graph.via_usage[layer][gx, gy])
    return count


def endpoints(graph: RoutingGraph, edge: GridEdge):
    """The two ``(layer, gx, gy)`` nodes ``edge`` joins, lower first
    (``GridEdge.endpoints`` as it was)."""
    if edge.kind is EdgeKind.VIA:
        return ((edge.layer, edge.gx, edge.gy), (edge.layer + 1, edge.gx, edge.gy))
    if graph.tech.layers[edge.layer].is_horizontal:
        return ((edge.layer, edge.gx, edge.gy), (edge.layer, edge.gx + 1, edge.gy))
    return ((edge.layer, edge.gx, edge.gy), (edge.layer, edge.gx, edge.gy + 1))


def demand(graph: RoutingGraph, edge: GridEdge) -> float:
    """Eq. 9 demand of a wire edge."""
    if edge.kind is not EdgeKind.WIRE:
        raise ValueError("demand is defined for wire edges")
    (l0, x0, y0), (l1, x1, y1) = endpoints(graph, edge)
    assert l0 == l1
    v_src = via_count_at(graph, l0, x0, y0)
    v_dst = via_count_at(graph, l1, x1, y1)
    delta = math.sqrt((v_src + v_dst) / 2.0)
    return (
        float(graph.wire_usage[edge.layer][edge.gx, edge.gy])
        + float(graph.fixed_usage[edge.layer][edge.gx, edge.gy])
        + graph.beta * delta
    )


def capacity(graph: RoutingGraph, edge: GridEdge) -> float:
    if edge.kind is not EdgeKind.WIRE:
        raise ValueError("capacity is defined for wire edges")
    return float(graph.wire_capacity[edge.layer][edge.gx, edge.gy])


class CostModel:
    """Evaluates Eq. 10 over a :class:`RoutingGraph`, edge by edge."""

    def __init__(self, graph: RoutingGraph, use_penalty: bool = True) -> None:
        self.graph = graph
        self.use_penalty = use_penalty
        # Normalize wire length to M2-pitch units so wire and via weights
        # are on the contest's common scale.
        self.pitch = m2_pitch(graph.tech)
        self._wire_dist = wire_edge_dists(graph.grid, graph.tech, self.pitch)

    def penalty(self, edge: GridEdge) -> float:
        """Logistic congestion penalty in [0, 1]."""
        if not self.use_penalty:
            return 0.0
        return logistic(SLOPE * (demand(self.graph, edge) - capacity(self.graph, edge)))

    def edge_cost(self, edge: GridEdge) -> float:
        """Eq. 10 cost of one edge."""
        if edge.kind is EdgeKind.VIA:
            return VIA_WEIGHT
        return WIRE_WEIGHT * self._wire_dist[edge.layer] * (1.0 + self.penalty(edge))

    def path_cost(self, edges: list[GridEdge]) -> float:
        """Total cost of a route (a list of graph edges), left to right
        (``sum()`` compensates from Python 3.12)."""
        total = 0.0
        for edge in edges:
            total += self.edge_cost(edge)
        return total

    def lower_bound(
        self, a: tuple[int, int, int], b: tuple[int, int, int]
    ) -> float:
        """Admissible A* heuristic: congestion-free cost from ``a`` to ``b``."""
        grid = self.graph.grid
        # Manhattan distance between the two GCell centers, in DBU
        dist = (
            abs(a[1] - b[1]) * grid.step_x + abs(a[2] - b[2]) * grid.step_y
        ) / self.pitch
        vias = abs(a[0] - b[0])
        return WIRE_WEIGHT * dist + VIA_WEIGHT * vias


def recompute_line(
    graph: RoutingGraph,
    use_penalty: bool,
    wire_dist: float,
    layer: int,
    line: int,
    cost: np.ndarray,
    demand_map: np.ndarray,
    prefix: np.ndarray,
) -> None:
    """Rebuild demand/cost/prefix of one line of ``layer``."""
    if cost.size == 0:
        return
    horizontal = graph.tech.layers[layer].is_horizontal
    sel = np.s_[:, line] if horizontal else np.s_[line, :]
    # Via crowding per GCell of the line (Eq. 9 delta_e).
    below = graph.via_usage[layer - 1] if layer >= 1 else None
    above = graph.via_usage[layer] if layer < graph.num_layers - 1 else None
    if below is not None and above is not None:
        via_count = below[sel] + above[sel]
    elif below is not None:
        via_count = below[sel]
    elif above is not None:
        via_count = above[sel]
    else:
        via_count = np.zeros((graph.grid.nx, graph.grid.ny), dtype=np.int32)[sel]
    v_src, v_dst = via_count[:-1], via_count[1:]
    delta = np.sqrt((v_src + v_dst) / 2.0)
    demand = (
        graph.wire_usage[layer][sel]
        + graph.fixed_usage[layer][sel]
        + graph.beta * delta
    )
    capacity = graph.wire_capacity[layer][sel]
    if use_penalty:
        x = SLOPE * (demand - capacity)
        with np.errstate(over="ignore"):
            penalty = 1.0 / (1.0 + np.exp(-x))
        penalty[x > 60.0] = 1.0
        penalty[x < -60.0] = 0.0
    else:
        penalty = np.zeros_like(demand)
    unit = WIRE_WEIGHT * wire_dist
    line_cost = unit * (1.0 + penalty)
    demand_map[sel] = demand
    cost[sel] = line_cost
    if horizontal:
        prefix[1:, line] = np.cumsum(line_cost)
    else:
        prefix[line, 1:] = np.cumsum(line_cost)


def reference_maps(
    graph: RoutingGraph, use_penalty: bool
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """``(wire cost, demand, prefix)`` per layer of the graph as it is now."""
    wire_dist = wire_edge_dists(graph.grid, graph.tech, m2_pitch(graph.tech))
    costs: list[np.ndarray] = []
    demands: list[np.ndarray] = []
    prefixes: list[np.ndarray] = []
    for layer in range(graph.num_layers):
        ex, ey = graph.wire_edge_shape(layer)
        horizontal = graph.tech.layers[layer].is_horizontal
        costs.append(np.zeros((ex, ey), dtype=np.float64))
        demands.append(np.zeros((ex, ey), dtype=np.float64))
        prefixes.append(
            np.zeros((ex + 1, ey) if horizontal else (ex, ey + 1), dtype=np.float64)
        )
        for line in range(ey if horizontal else ex):
            recompute_line(
                graph, use_penalty, wire_dist[layer], layer, line,
                costs[-1], demands[-1], prefixes[-1],
            )
    return costs, demands, prefixes
