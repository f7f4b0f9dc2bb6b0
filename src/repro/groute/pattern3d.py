"""The 3D pattern router (Algorithm 3's ``getPatternRoute3D``).

Takes a 2D GCell polyline, assigns one routing layer to every straight
run with a dynamic program (:meth:`PatternRouter3D.plan`), and
materializes the chosen layers into graph edge ids — wires plus the vias
stitching runs and terminals together (:meth:`PatternRouter3D.build`);
a straight run and a via stack are each one arithmetic range of ids.
The DP cost is exactly the Eq. 10 edge cost under the current
demand/capacity state, so congested layers are avoided.

Run costs come from a :class:`repro.grid.field.CostField`: two
prefix-sum lookups (O(1) per run) instead of O(len) scalar ``edge_cost``
calls, so a plan costs no edge list.  ``plan`` and ``build`` read the
field as it is: ``route`` and ``route_cost`` refresh it once per call,
and a caller planning several paths of one segment refreshes it once
itself (``GlobalRouter._route_segment``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.grid import CostField, RoutingGraph
from repro.groute.patterns import GPoint, runs_of_path


@dataclass(slots=True)
class Pattern3DResult:
    """A materialized 3D route: its edge ids, modeled cost, and end layer."""

    edges: list[int]
    cost: float
    end_layer: int = 0


@dataclass(slots=True)
class Pattern3DPlan:
    """A layer assignment not yet turned into edges.

    ``value`` is the DP value: the Eq. 10 cost of the route
    :meth:`PatternRouter3D.build` makes of this plan, up to float
    association (run costs are prefix differences, the built route is
    priced edge by edge).
    """

    start: GPoint
    runs: list[tuple[GPoint, GPoint]]
    layers: list[int]  # the chosen layer of each run
    src_layer: int
    dst_layer: int  # the far terminal's layer, or the DP's free choice
    value: float

    @property
    def end_layer(self) -> int:
        """The layer the route arrives on, before any terminal via stack."""
        return self.layers[-1] if self.layers else self.dst_layer


class PatternRouter3D:
    """Layer assignment over 2D patterns."""

    def __init__(
        self,
        graph: RoutingGraph,
        field: CostField,
        min_layer: int = 0,
    ) -> None:
        self.graph = graph
        self.min_layer = min_layer
        self.field = field
        #: usable layers per run direction (True = horizontal), fixed by
        #: the tech stack so the DP never re-filters them per run
        self._dir_layers: dict[bool, list[int]] = {
            horizontal: [
                layer.index
                for layer in graph.tech.layers
                if layer.index >= min_layer
                and layer.is_horizontal == horizontal
            ]
            for horizontal in (True, False)
        }

    # ------------------------------------------------------------------ API

    def route(
        self,
        path: list[GPoint],
        src_layer: int,
        dst_layer: int | None,
    ) -> Pattern3DResult | None:
        """Assign layers to ``path`` connecting the two terminal layers.

        With ``dst_layer=None`` the far end is a Steiner junction whose
        layer is chosen freely by the DP (no terminal via stack there);
        the chosen layer is reported in ``end_layer``.  Returns ``None``
        when some run direction has no usable layer.
        """
        self.field.ensure()
        plan = self.plan(path, src_layer, dst_layer)
        return None if plan is None else self.build(plan)

    def plan(
        self,
        path: list[GPoint],
        src_layer: int,
        dst_layer: int | None,
    ) -> Pattern3DPlan | None:
        """The DP half of :meth:`route`: a layer per run and the DP value."""
        via_w = self.field.via_cost
        runs = runs_of_path(path)
        if not runs:
            # Both terminals share a GCell: a via stack suffices.
            end = dst_layer if dst_layer is not None else src_layer
            return Pattern3DPlan(
                path[0], runs, [], src_layer, end, via_w * abs(end - src_layer)
            )

        dp = self._layer_dp(runs, src_layer)
        if dp is None:
            return None
        best, back = dp

        if dst_layer is None:
            final_layer = min(best, key=lambda layer: best[layer])
            value = best[final_layer]
        else:
            final_layer = min(
                best, key=lambda layer: best[layer] + via_w * abs(layer - dst_layer)
            )
            value = best[final_layer] + via_w * abs(final_layer - dst_layer)
        chosen = [final_layer]
        for links in reversed(back):
            chosen.append(links[chosen[-1]])
        chosen.reverse()
        return Pattern3DPlan(
            path[0], runs, chosen, src_layer,
            dst_layer if dst_layer is not None else final_layer, value,
        )

    def build(self, plan: Pattern3DPlan) -> Pattern3DResult:
        """The edge half of :meth:`route`: materialize ``plan`` and price
        its edges one by one."""
        edges = self._materialize(plan)
        return Pattern3DResult(
            edges=edges,
            cost=self.field.fresh_path_cost(edges),
            end_layer=plan.end_layer,
        )

    def route_cost(
        self,
        path: list[GPoint],
        src_layer: int,
        dst_layer: int | None,
    ) -> float | None:
        """Eq. 10 cost of the best layer assignment, without materializing.

        The DP value already equals the edge-sum of the route that
        :meth:`route` would build, so candidate estimation can rank
        patterns with no edge lists at all.  Returns ``None`` when some
        run direction has no usable layer.
        """
        self.field.ensure()
        plan = self.plan(path, src_layer, dst_layer)
        return None if plan is None else plan.value

    @contextmanager
    def using(self, field: CostField) -> Iterator["PatternRouter3D"]:
        """Temporarily price with a different cost field (the
        penalty-free ECC estimation of the ablation, the [18] baseline)."""
        prev_field = self.field
        self.field = field
        try:
            yield self
        finally:
            self.field = prev_field

    # -------------------------------------------------------------- helpers

    def _layer_dp(
        self, runs: list[tuple[GPoint, GPoint]], src_layer: int
    ) -> tuple[dict[int, float], list[dict[int, int]]] | None:
        """DP over runs; state = chosen layer of the current run.

        Returns the final best-cost map and the back pointers, or
        ``None`` if a run has no usable layer.
        """
        # CostField.run_cost_batch inlined: two prefix lookups per (run, layer)
        # on a field the caller of plan() refreshed.  Prefix maps are
        # indexed [gx, gy] whatever the direction, and a straight run's
        # ends differ in one coordinate, so they sort into (low, high).
        prefix = self.field._prefix
        run_layers: list[list[int]] = []
        run_costs: list[dict[int, float]] = []
        for run in runs:
            layers = self._dir_layers[run[0][1] == run[1][1]]
            if not layers:
                return None
            run_layers.append(layers)
            lo, hi = sorted(run)
            run_costs.append(
                {
                    layer: float(prefix[layer][hi] - prefix[layer][lo])
                    for layer in layers
                }
            )

        via_w = self.field.via_cost
        best: dict[int, float] = {}
        back: list[dict[int, int]] = []
        for layer in run_layers[0]:
            best[layer] = run_costs[0][layer] + via_w * abs(layer - src_layer)
        for i in range(1, len(runs)):
            nxt: dict[int, float] = {}
            links: dict[int, int] = {}
            costs_i = run_costs[i]
            prev_layers = run_layers[i - 1]
            # Explicit min loop; candidate layers ascend, so strict `<`
            # keeps the lowest layer on ties exactly like min() over
            # (value, prev) tuples did.
            for layer in run_layers[i]:
                value = float("inf")
                prev = -1
                for p in prev_layers:
                    cand = best[p] + via_w * abs(layer - p)
                    if cand < value:
                        value = cand
                        prev = p
                nxt[layer] = value + costs_i[layer]
                links[layer] = prev
            best = nxt
            back.append(links)
        return best, back

    def _run_edges(self, run: tuple[GPoint, GPoint], layer: int) -> range:
        (x0, y0), (x1, y1) = run
        if y0 == y1:
            return self.graph.wire_run(layer, min(x0, x1), max(x0, x1), y0)
        return self.graph.wire_run(layer, min(y0, y1), max(y0, y1), x0)

    def _materialize(self, plan: Pattern3DPlan) -> list[int]:
        via_stack = self.graph.via_stack
        edges: list[int] = []
        (x, y), layer = plan.start, plan.src_layer
        for run, run_layer in zip(plan.runs, plan.layers):
            edges += via_stack(x, y, layer, run_layer)
            edges += self._run_edges(run, run_layer)
            (x, y), layer = run[1], run_layer
        edges += via_stack(x, y, layer, plan.dst_layer)
        return edges
