"""Edge and path costs (Eq. 10 of the paper).

    cost_e = Unit_e * Dist(e) * (1 + penalty(e))

``Unit_e`` is the ISPD-2018 metric weight of the edge species (wire 0.5
per M2-pitch of length, via 2 per cut), ``Dist(e)`` the Manhattan
distance between GCell centers, and ``penalty(e)`` a logistic function of
demand versus capacity.

Note on the penalty sign: the paper prints ``1 / (1 + exp(S * (D_e -
C_e)))``, which *decreases* as demand exceeds capacity — a typo, since
the text says increasing ``S`` causes "faster overflow in an edge" (the
penalty must grow with congestion, as in NTHU-Route [22]).  We implement
the intended ``1 / (1 + exp(-S * (D_e - C_e)))``.

This scalar model is the Eq. 10 *definition*: the vectorized
:class:`repro.grid.field.CostField` kernel, which prices every route the
router builds, is pinned to ``penalty``/``edge_cost``/``path_cost``
bit-for-bit (same ``np.exp``, same operation order) by
``tests/test_cost_field.py``.  At run time the router reads only
``params``, ``pitch`` and ``lower_bound`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.gcellgrid import GCellGrid
from repro.grid.graph import EdgeKind, GridEdge, RoutingGraph
from repro.tech import Technology


@dataclass(slots=True)
class CostParams:
    """Tunable constants of the cost model.

    ``wire_weight`` and ``via_weight`` mirror the ISPD-2018 evaluation
    weights (0.5 per wire unit, 2 per via) the paper cites to explain why
    via reduction dominates.  ``slope`` is the logistic slope ``S``;
    ``use_penalty`` exists for the ablation study.
    """

    wire_weight: float = 0.5
    via_weight: float = 2.0
    slope: float = 1.0
    use_penalty: bool = True


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
    is computed once here instead of per ``edge_cost`` call; the
    vectorized :class:`repro.grid.field.CostField` reuses the exact same
    constants.
    """
    return tuple(
        (grid.step_x if layer.is_horizontal else grid.step_y) / pitch
        for layer in tech.layers
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


class CostModel:
    """Evaluates Eq. 10 over a :class:`RoutingGraph`."""

    def __init__(self, graph: RoutingGraph, params: CostParams | None = None) -> None:
        self.graph = graph
        self.params = params or CostParams()
        # Normalize wire length to M2-pitch units so wire and via weights
        # are on the contest's common scale.
        self.pitch = m2_pitch(graph.tech)
        self._wire_dist = wire_edge_dists(graph.grid, graph.tech, self.pitch)

    def penalty(self, edge: GridEdge) -> float:
        """Logistic congestion penalty in [0, 1]."""
        if not self.params.use_penalty:
            return 0.0
        demand = self.graph.demand(edge)
        capacity = self.graph.capacity(edge)
        return logistic(self.params.slope * (demand - capacity))

    def edge_cost(self, edge: GridEdge) -> float:
        """Eq. 10 cost of one edge."""
        if edge.kind is EdgeKind.VIA:
            return self.params.via_weight
        return (
            self.params.wire_weight
            * self._wire_dist[edge.layer]
            * (1.0 + self.penalty(edge))
        )

    def path_cost(self, edges: list[GridEdge]) -> float:
        """Total cost of a route (a list of graph edges)."""
        return sum(self.edge_cost(edge) for edge in edges)

    def lower_bound(
        self, a: tuple[int, int, int], b: tuple[int, int, int]
    ) -> float:
        """Admissible A* heuristic: congestion-free cost from ``a`` to ``b``."""
        grid = self.graph.grid
        dist = grid.manhattan_centers((a[1], a[2]), (b[1], b[2])) / self.pitch
        vias = abs(a[0] - b[0])
        return self.params.wire_weight * dist + self.params.via_weight * vias
