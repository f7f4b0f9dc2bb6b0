"""Per-line reference for the cost field's batched recompute.

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

from repro.grid import CostParams, RoutingGraph
from repro.grid.cost import m2_pitch, wire_edge_dists


def recompute_line(
    graph: RoutingGraph,
    params: CostParams,
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
    if params.use_penalty:
        x = params.slope * (demand - capacity)
        with np.errstate(over="ignore"):
            penalty = 1.0 / (1.0 + np.exp(-x))
        penalty[x > 60.0] = 1.0
        penalty[x < -60.0] = 0.0
    else:
        penalty = np.zeros_like(demand)
    unit = params.wire_weight * wire_dist
    line_cost = unit * (1.0 + penalty)
    demand_map[sel] = demand
    cost[sel] = line_cost
    if horizontal:
        prefix[1:, line] = np.cumsum(line_cost)
    else:
        prefix[line, 1:] = np.cumsum(line_cost)


def reference_maps(
    graph: RoutingGraph, params: CostParams
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
                graph, params, wire_dist[layer], layer, line,
                costs[-1], demands[-1], prefixes[-1],
            )
    return costs, demands, prefixes
