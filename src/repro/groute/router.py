"""The global-routing driver (the flow's CUGR stand-in).

Routes every net with FLUTE decomposition + 3D pattern routing, then
runs rip-up-and-reroute maze passes on overflowed edges.  Two notions of
overflow meet here: the RRR passes of :meth:`GlobalRouter.improve` pick
their victims by Eq. 9 demand, via-crowding term included, while the
overflow the flow reports is wire plus fixed usage over capacity
(:meth:`RoutingGraph.overflow`); :meth:`GlobalRouter.repair_overflow`
reroutes the nets on the reported one, with the same pass.  Exposes the
queries CR&P needs: a snapshot of every net's route cost, congestion
state, incremental reroute of dirty nets after cell movement, and guide
emission for the detailed router.

A committed route is a set of the graph's int edge ids
(:class:`repro.grid.RoutingGraph`): commit, rip-up, RRR victim
selection, pricing and the accounting check all work on ids, and only
the route digest decodes them to :class:`repro.grid.GridEdge`.
``routes`` is the router's only record of them: costs and RRR victims
are read off it when asked, not kept in indexes beside it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.geom import Point, Rect
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.grid import CostField, GCellGrid, RoutingGraph
from repro.grid.field import VIA_WEIGHT
from repro.grid.graph import flat_views
from repro.groute.maze import maze_route
from repro.groute.pattern3d import PatternRouter3D
from repro.groute.patterns import pattern_paths_2d
from repro.obs import get_metrics, get_tracer

Node = tuple[int, int, int]

#: A path whose DP value exceeds the segment's smallest by more than this
#: (relative, floored at 1.0) cannot be the cheapest once built: a DP
#: value and the edge-by-edge cost of the same path differ only by float
#: association, orders of magnitude below half the band (DESIGN.md,
#: "Built once").  Not a tuning knob.
PLAN_BAND = 1e-9

#: GCells a net's guide grows by on every side (:meth:`GlobalRouter.guides`)
GUIDE_EXPAND = 1


@dataclass(frozen=True, slots=True)
class GuideRect:
    """One route-guide rectangle on a routing layer
    (:meth:`GlobalRouter.guides`)."""

    layer: int
    rect: Rect


@dataclass(slots=True)
class NetRoute:
    """The committed route of one net: graph edge ids and terminals."""

    net: str
    edges: set[int] = field(default_factory=set)
    terminals: list[Node] = field(default_factory=list)


class GlobalRouter:
    """Congestion-aware 3D global router over a design."""

    def __init__(self, design: Design, beta: float = 1.5) -> None:
        """A router over ``design``'s GCell grid; ``beta`` weights the
        Eq. 9 via-crowding term of the demand."""
        self.design = design
        self.grid = GCellGrid.for_design(design)
        self.graph = RoutingGraph(self.grid, design.tech, beta=beta)
        self.graph.init_fixed_usage(design)
        #: the Eq. 10 cost model every route is priced through
        self.field = CostField(self.graph)
        self.pattern3d = PatternRouter3D(
            self.graph, self.field, min_layer=self.graph.min_wire_layer
        )
        self.routes: dict[str, NetRoute] = {}

    # ------------------------------------------------------------ terminals

    def terminals_of(self, net: Net) -> list[Node]:
        """Distinct (layer, gx, gy) terminal nodes of a net."""
        nodes: list[Node] = []
        seen: set[Node] = set()
        for pin in net.pins:
            point = self.design.pin_point(pin)
            layer = self.design.pin_layer(pin)
            gx, gy = self.grid.gcell_of(point)
            node = (layer, gx, gy)
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        return nodes

    # -------------------------------------------------------------- routing

    def route_all(self, rrr_passes: int = 3) -> None:
        """Route every net, run rip-up-and-reroute on overflows, then
        repair the reported overflow that is left."""
        tracer = get_tracer()
        with tracer.span("groute.initial"):
            for name in self.design.routing_order(self.design.nets):
                self.route_net(name)
        self.improve(rrr_passes)
        self.repair_overflow()

    def improve(self, rrr_passes: int = 3) -> int:
        """Run up to ``rrr_passes`` RRR passes; returns passes completed.

        A pass reroutes at most 200 of the nets on the edges whose Eq. 9
        demand exceeds capacity (:meth:`CostField.overflow_edges`).  Stops
        early at the first pass that finds no such net.
        """
        completed = 0
        metrics = get_metrics()
        with get_tracer().span("groute.rrr"):
            for _ in range(rrr_passes):
                replaced = self._rrr_pass(self.field.overflow_edges(), max_nets=200)
                if not replaced:
                    break
                metrics.count("groute.rrr_passes")
                metrics.count("groute.rrr_victims", len(replaced))
                completed += 1
        return completed

    def repair_overflow(self) -> float:
        """Reroute the nets on the edges the reported overflow sums
        (:meth:`RoutingGraph.overflow_edges`) until it is 0 or stops
        falling; returns the overflow it started from.

        A pass that does not lower the overflow is undone, so the repair
        never raises it.  The ``groute.repair`` span's meta holds the
        overflow in and out and the nets rerouted.
        """
        metrics = get_metrics()
        tracer = get_tracer()
        overflow_in = overflow = self.total_overflow()
        victims = 0
        with tracer.span("groute.repair") as span:
            while overflow > 0.0:
                replaced = self._rrr_pass(self.graph.overflow_edges())
                metrics.count("groute.repair_passes")
                metrics.count("groute.repair_victims", len(replaced))
                victims += len(replaced)
                after = self.total_overflow()
                if after >= overflow:
                    for name, route in replaced.items():
                        self.restore_route(name, route)
                    break
                overflow = after
            if tracer.recording:
                span.meta.update(
                    overflow_in=overflow_in, overflow_out=overflow, victims=victims
                )
        return overflow_in

    def route_net(self, net_name: str) -> NetRoute:
        """(Re)route one net with RSMT + 3D pattern routing."""
        if net_name in self.routes:
            self.rip_up(net_name)
        net = self.design.nets[net_name]
        terminals = self.terminals_of(net)
        route = NetRoute(net=net_name, terminals=terminals)
        if len(terminals) > 1:
            route.edges = self._route_tree(terminals)
        self._commit(route)
        get_metrics().count("groute.nets_routed")
        return route

    def _route_tree(self, terminals: list[Node]) -> set[int]:
        """Pattern-route the RSMT decomposition of the terminals."""
        points = [Point(t[1], t[2]) for t in terminals]
        tree = build_rsmt(points)
        # Tree point index -> known layer (terminals fixed, junctions free).
        layer_of: dict[int, int | None] = {}
        for index, point in enumerate(tree.points):
            layer_of[index] = None
        for terminal in terminals:
            for index, point in enumerate(tree.points):
                if (point.x, point.y) == (terminal[1], terminal[2]):
                    if layer_of[index] is None:
                        layer_of[index] = terminal[0]

        edges: set[int] = set()
        # Route tree edges rooted at point 0 so each segment starts from a
        # node whose layer is already decided.
        adjacency: dict[int, list[int]] = defaultdict(list)
        for a, b in tree.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        visited = {0}
        if layer_of[0] is None:
            layer_of[0] = 0
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v in visited:
                    continue
                visited.add(v)
                src = (layer_of[u], tree.points[u].x, tree.points[u].y)
                dst_xy = (tree.points[v].x, tree.points[v].y)
                result = self._route_segment(src, dst_xy, layer_of[v])
                if result is not None:
                    edges.update(result[0])
                    if layer_of[v] is None:
                        layer_of[v] = result[1]
                elif layer_of[v] is None:
                    layer_of[v] = layer_of[u]
                stack.append(v)
        return edges

    def _route_segment(
        self,
        src: Node,
        dst_xy: tuple[int, int],
        dst_layer: int | None,
    ) -> tuple[list[int], int] | None:
        """Best pattern route for one 2-pin segment.

        Every path is planned; only those whose DP value lies within
        ``PLAN_BAND`` of the smallest are built, and the built ones are
        ranked on their edge-by-edge cost, first in path order on ties.
        """
        p3d = self.pattern3d
        paths = pattern_paths_2d((src[1], src[2]), dst_xy)
        metrics = get_metrics()
        metrics.count("groute.paths_planned", len(paths))
        p3d.field.ensure()
        plans = [
            plan
            for path in paths
            if (plan := p3d.plan(path, src[0], dst_layer)) is not None
        ]
        if not plans:
            return None
        cutoff = min(plan.value for plan in plans)
        cutoff += PLAN_BAND * max(1.0, abs(cutoff))
        contenders = [p3d.build(plan) for plan in plans if plan.value <= cutoff]
        metrics.count("groute.paths_built", len(contenders))
        if len(contenders) > 1:
            metrics.count("groute.segments_multi_contender")
        best = min(contenders, key=lambda result: result.cost)
        return best.edges, best.end_layer

    # ------------------------------------------------------------ commit/rip

    def _commit(self, route: NetRoute) -> None:
        # apply_route is order-independent: exact +-1 on usage counters,
        # set-valued dirty rows.
        self.graph.apply_route(route.edges, sign=1)
        self.routes[route.net] = route
        get_metrics().count("groute.edges_committed", len(route.edges))

    def rip_up(self, net_name: str) -> None:
        route = self.routes.pop(net_name, None)
        if route is None:
            return
        metrics = get_metrics()
        metrics.count("groute.ripup_nets")
        metrics.count("groute.edges_ripped", len(route.edges))
        self.graph.apply_route(route.edges, sign=-1)

    def reroute_nets(self, net_names: list[str]) -> None:
        """Rip up and pattern-reroute nets (CR&P's Update Database step)."""
        for name in net_names:
            self.rip_up(name)
        for name in self.design.routing_order(net_names):
            self.route_net(name)

    # ----------------------------------------------------------------- RRR

    def _rrr_pass(
        self, edges: list[int], max_nets: int | None = None
    ) -> dict[str, NetRoute]:
        """One rip-up-and-reroute pass over the nets on ``edges``.

        The victims are the committed nets with an edge in ``edges``,
        taken in :meth:`Design.routing_order` (so only their set
        matters), the first ``max_nets`` of them when a cap is given.
        Each is maze-rerouted in turn.  Returns the routes they had
        before, in that order: empty when no net was on ``edges``.
        """
        over = set(edges)
        victims = [
            name
            for name, route in self.routes.items()
            if not over.isdisjoint(route.edges)
        ]
        replaced = {
            name: self.routes[name]
            for name in self.design.routing_order(victims)[:max_nets]
        }
        # ``rip_up`` pops each old route and ``_commit`` stores a new
        # object, so the ones kept here stay as they were.
        for name in replaced:
            self._maze_reroute(name)
        return replaced

    def _maze_reroute(self, net_name: str) -> None:
        """Reroute one net terminal-by-terminal with overflow-averse A*.

        A terminal the maze search cannot reach is connected with a
        pattern route instead (counted as ``groute.maze_fallbacks``).
        """
        self.rip_up(net_name)
        net = self.design.nets[net_name]
        terminals = self.terminals_of(net)
        route = NetRoute(net=net_name, terminals=terminals)
        if len(terminals) > 1:
            connected: set[Node] = {terminals[0]}
            for terminal in terminals[1:]:
                path = maze_route(
                    self.graph,
                    self.field,
                    sources=set(connected),
                    targets={terminal},
                    overflow_penalty=10.0 * VIA_WEIGHT,
                )
                if path is None:
                    get_metrics().count("groute.maze_fallbacks")
                    fallback = self._route_segment(
                        next(iter(connected)), (terminal[1], terminal[2]), terminal[0]
                    )
                    path = fallback[0] if fallback else []
                route.edges.update(path)
                connected.add(terminal)
                for edge in path:
                    a, b = self.graph.endpoints(edge)
                    connected.add(a)
                    connected.add(b)
        self._commit(route)

    # ------------------------------------------------- snapshot & restore

    def copy_route(self, net_name: str) -> NetRoute | None:
        """A detached copy of a net's committed route (``None`` if unrouted).

        Used by :class:`repro.guard.IterationTransaction` to snapshot
        dirty nets before CR&P's Update-Database step.
        """
        route = self.routes.get(net_name)
        if route is None:
            return None
        return NetRoute(
            net=route.net, edges=set(route.edges), terminals=list(route.terminals)
        )

    def restore_route(self, net_name: str, route: NetRoute | None) -> None:
        """Replace a net's committed route with a snapshot (rollback)."""
        self.rip_up(net_name)
        if route is not None:
            self._commit(
                NetRoute(
                    net=route.net,
                    edges=set(route.edges),
                    terminals=list(route.terminals),
                )
            )

    def accounting_errors(self) -> list[str]:
        """Check graph demand against the committed routes.

        Rebuilds the expected wire/via usage arrays from ``self.routes``
        (one ``bincount`` per quantity over the edge ids) and compares
        them with the incrementally-maintained graph state; a mismatch
        means a commit/rip-up bug (or a botched rollback).  Returns
        human-readable mismatch descriptions, empty when clean.
        """
        graph = self.graph
        n_wire = graph.n_wire
        ids = np.fromiter(
            (edge for route in self.routes.values() for edge in route.edges),
            dtype=np.intp,
        )
        wire_ids = ids[ids < n_wire]
        via_ids = ids[ids >= n_wire] - n_wire
        wire_flat, expected_wire = flat_views(
            [usage.shape for usage in graph.wire_usage], np.float64
        )
        via_flat, expected_via = flat_views(
            [usage.shape for usage in graph.via_usage], np.int32
        )
        wire_flat[:-1] = np.bincount(wire_ids, minlength=wire_flat.size - 1)
        via_flat[:-1] = np.bincount(via_ids, minlength=via_flat.size - 1)
        errors: list[str] = []
        for layer, (expected, actual) in enumerate(
            zip(expected_wire, graph.wire_usage)
        ):
            if not np.allclose(expected, actual):
                delta = float(np.abs(expected - actual).sum())
                errors.append(
                    f"wire demand mismatch on layer {layer} (|delta|={delta:g})"
                )
        for layer, (expected, actual) in enumerate(
            zip(expected_via, graph.via_usage)
        ):
            if not np.array_equal(expected, actual):
                delta = int(np.abs(expected - actual).sum())
                errors.append(
                    f"via demand mismatch below layer {layer + 1} (|delta|={delta})"
                )
        return errors

    # ------------------------------------------------------------- queries

    def net_costs(self) -> dict[str, float]:
        """The Eq. 10 cost of every net's current route, in ``design.nets``
        order (0.0 for an unrouted net): one snapshot of routing state.

        Each route is priced in canonical edge order, so the bits do not
        depend on set order.
        """
        field = self.field
        field.ensure()
        edge_order = self.graph.edge_order
        costs: dict[str, float] = {}
        for name in self.design.nets:
            route = self.routes.get(name)
            if route is None:
                costs[name] = 0.0
            else:
                costs[name] = field.fresh_path_cost(edge_order(route.edges))
        return costs

    def total_route_cost(self) -> float:
        """Eq. 10 total over every net, summed in canonical design order."""
        return sum(self.net_costs().values())

    def total_wirelength_dbu(self) -> int:
        return self.graph.total_wire_dbu()

    def total_vias(self) -> int:
        return self.graph.total_vias()

    def total_overflow(self) -> float:
        return self.graph.overflow()

    def dirty_nets_for_cells(self, cell_names: list[str]) -> list[str]:
        """Nets needing reroute after the given cells moved."""
        dirty: dict[str, None] = {}
        for cell_name in cell_names:
            for net in self.design.nets_of_cell(cell_name):
                dirty.setdefault(net.name)
        return list(dirty)

    # -------------------------------------------------------------- guides

    def guides(self) -> dict[str, list[GuideRect]]:
        """Per-net route guides for the detailed router.

        A net's guide covers, on each layer, the GCells its route and
        terminals touch there: every wire edge its two GCells on its
        layer, every via edge its GCell on both layers, and every
        terminal its GCell on its pin layer and the layer above (capped
        at the top layer).  :data:`GUIDE_EXPAND` grows that set by one
        GCell on every side, mirroring the slack detailed routers are
        given in practice.

        Emitted as one rect per maximal run of a layer's GCells along
        the layer's preferred direction, grown the same way, ordered by
        (layer, line, start).  The runs are found for all nets at once
        from the edge ids (:meth:`RoutingGraph.endpoint_arrays`): one
        sorted array of (net, layer, line, position) keys, split where
        two neighbours are not one position apart.
        """
        graph = self.graph
        grid = self.grid
        nx, ny = grid.nx, grid.ny
        top = graph.num_layers - 1
        names = list(self.routes)
        routes = [self.routes[name] for name in names]
        ids = np.fromiter(
            (edge for route in routes for edge in route.edges),
            dtype=np.int64,
        )
        net_of = np.repeat(
            np.arange(len(routes)), [len(route.edges) for route in routes]
        )
        terminals = np.array(
            [(i, *t) for i, route in enumerate(routes) for t in route.terminals],
            dtype=np.int64,
        ).reshape(-1, 4)
        t_net, t_layer, t_gx, t_gy = terminals.T
        e_layer, e_gx, e_gy = graph.endpoint_arrays(ids)
        net = np.concatenate([net_of, net_of, t_net, t_net])
        layer = np.concatenate([e_layer, t_layer, np.minimum(t_layer + 1, top)])
        gx = np.concatenate([e_gx, t_gx, t_gx])
        gy = np.concatenate([e_gy, t_gy, t_gy])
        # Position along the layer's preferred direction, and the line
        # across it; ``span`` leaves a gap between lines, so a run never
        # joins the end of one line to the start of the next.
        is_horizontal = np.array([l.is_horizontal for l in graph.tech.layers])
        horizontal = is_horizontal[layer]
        pos = np.where(horizontal, gx, gy)
        line = np.where(horizontal, gy, gx)
        span = max(nx, ny) + 1
        keys = np.unique(((net * (top + 1) + layer) * span + line) * span + pos)
        result: dict[str, list[GuideRect]] = {name: [] for name in names}
        if not keys.size:
            return result
        breaks = np.flatnonzero(np.diff(keys) != 1) + 1
        starts = keys[np.concatenate([[0], breaks])]
        ends = keys[np.concatenate([breaks - 1, [keys.size - 1]])]
        rest, lo = np.divmod(starts, span)
        hi = ends % span
        rest, line = np.divmod(rest, span)
        net, layer = np.divmod(rest, top + 1)
        horizontal = is_horizontal[layer]
        lo = np.maximum(lo - GUIDE_EXPAND, 0)
        hi = hi + GUIDE_EXPAND
        line_lo = np.maximum(line - GUIDE_EXPAND, 0)
        line_hi = line + GUIDE_EXPAND
        gx0 = np.where(horizontal, lo, line_lo)
        gy0 = np.where(horizontal, line_lo, lo)
        gx1 = np.minimum(np.where(horizontal, hi, line_hi), nx - 1) + 1
        gy1 = np.minimum(np.where(horizontal, line_hi, hi), ny - 1) + 1
        for i, l, x0, y0, x1, y1 in zip(
            net.tolist(),
            layer.tolist(),
            (grid.origin_x + gx0 * grid.step_x).tolist(),
            (grid.origin_y + gy0 * grid.step_y).tolist(),
            (grid.origin_x + gx1 * grid.step_x).tolist(),
            (grid.origin_y + gy1 * grid.step_y).tolist(),
        ):
            result[names[i]].append(GuideRect(l, Rect(x0, y0, x1, y1)))
        return result
