"""The global-routing driver (the flow's CUGR stand-in).

Routes every net with FLUTE decomposition + 3D pattern routing, then
runs rip-up-and-reroute maze passes on overflowed edges.  Exposes the
queries CR&P needs: per-net route cost, congestion state, incremental
reroute of dirty nets after cell movement, and guide emission for the
detailed router.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.geom import Point, Rect
from repro.guard.deadline import DeadlineExceeded, check_deadline
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.grid import (
    CostField,
    CostModel,
    CostParams,
    EdgeKind,
    GCellGrid,
    GridEdge,
    RoutingGraph,
)
from repro.groute.maze import maze_route
from repro.groute.pattern3d import PatternRouter3D
from repro.groute.patterns import pattern_paths_2d
from repro.lefdef.guides import GuideRect
from repro.obs import get_metrics, get_tracer

Node = tuple[int, int, int]

#: A path whose DP value exceeds the segment's smallest by more than this
#: (relative, floored at 1.0) cannot be the cheapest once built: a DP
#: value and the edge-by-edge cost of the same path differ only by float
#: association, orders of magnitude below half the band (DESIGN.md,
#: "Built once").  Not a tuning knob.
PLAN_BAND = 1e-9

#: ``GridEdge``'s own (dataclass) order, as a C-level sort key
_EDGE_ORDER = attrgetter("layer", "gx", "gy", "kind")


@dataclass(slots=True)
class NetRoute:
    """The committed route of one net."""

    net: str
    edges: set[GridEdge] = field(default_factory=set)
    terminals: list[Node] = field(default_factory=list)

    def nodes(self, graph: RoutingGraph) -> set[Node]:
        """Every graph node the route touches (for incremental maze)."""
        result: set[Node] = set(self.terminals)
        for edge in self.edges:
            a, b = edge.endpoints(graph)
            result.add(a)
            result.add(b)
        return result

    def wirelength_dbu(self, grid: GCellGrid, graph: RoutingGraph) -> int:
        total = 0
        for edge in self.edges:
            if edge.kind is EdgeKind.WIRE:
                if graph.tech.layers[edge.layer].is_horizontal:
                    total += grid.step_x
                else:
                    total += grid.step_y
        return total

    def via_count(self) -> int:
        return sum(1 for e in self.edges if e.kind is EdgeKind.VIA)


class GlobalRouter:
    """Congestion-aware 3D global router over a design."""

    def __init__(
        self,
        design: Design,
        params: CostParams | None = None,
        target_gcells: int = 32,
        beta: float = 1.5,
    ) -> None:
        self.design = design
        self.grid = GCellGrid.for_design(design, target_gcells=target_gcells)
        self.graph = RoutingGraph(self.grid, design.tech, beta=beta)
        self.graph.init_fixed_usage(design)
        self.cost = CostModel(self.graph, params)
        #: dense Eq. 9/10 kernel every route is priced through; pinned
        #: bit-for-bit to the scalar ``self.cost`` definition
        self.field = CostField(self.graph, self.cost.params)
        self.pattern3d = PatternRouter3D(
            self.graph,
            self.cost,
            self.field,
            min_layer=self.graph.min_wire_layer,
        )
        self.routes: dict[str, NetRoute] = {}
        # Plain dict (not defaultdict): lookups must never materialize
        # empty entries, or the RRR scan grows monotonically.
        self._edge_nets: dict[GridEdge, set[str]] = {}
        #: O(dirty-nets) per-net cost cache; ``None`` (every query is a
        #: fresh scan) until :meth:`enable_incremental_cost` attaches it
        self.cost_cache = None
        # Plain-int tallies of ``_route_segment``, flushed as groute.*
        # metrics by ``_publish_path_metrics`` (no registry in the loop).
        self._paths_planned = 0
        self._paths_built = 0
        self._segments_multi_contender = 0

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
        """Route every net, then run rip-up-and-reroute on overflows.

        Deadline semantics: initial routing is mandatory, so a deadline
        expiring there propagates :class:`DeadlineExceeded`.  The RRR
        passes are an improvement loop and degrade gracefully — see
        :meth:`improve`.
        """
        tracer = get_tracer()
        with tracer.span("groute.initial"):
            order = sorted(
                self.design.nets.values(),
                key=lambda n: (self.design.net_hpwl(n), n.name),
            )
            for net in order:
                check_deadline("groute.initial")
                self.route_net(net.name)
        self.improve(rrr_passes)
        self.field.publish_metrics()

    def improve(self, rrr_passes: int = 3) -> int:
        """Run up to ``rrr_passes`` RRR passes; returns passes completed.

        A deadline expiring mid-pass stops the loop instead of raising:
        every committed route is still valid, just less optimized.  The
        early stop is visible as ``groute.rrr_deadline_stops``.
        """
        completed = 0
        with get_tracer().span("groute.rrr"):
            try:
                for _ in range(rrr_passes):
                    check_deadline("groute.rrr")
                    if not self._rrr_pass():
                        break
                    completed += 1
            except DeadlineExceeded:
                get_metrics().count("groute.rrr_deadline_stops")
        self.field.publish_metrics()
        self._publish_path_metrics()
        return completed

    def _publish_path_metrics(self) -> None:
        """Flush the ``_route_segment`` tallies as ``groute.*`` deltas."""
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("groute.paths_planned", self._paths_planned)
        metrics.count("groute.paths_built", self._paths_built)
        metrics.count(
            "groute.segments_multi_contender", self._segments_multi_contender
        )
        self._paths_planned = 0
        self._paths_built = 0
        self._segments_multi_contender = 0

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

    def _route_tree(self, terminals: list[Node]) -> set[GridEdge]:
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

        edges: set[GridEdge] = set()
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
            check_deadline("groute.tree")
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
    ) -> tuple[list[GridEdge], int] | None:
        """Best pattern route for one 2-pin segment.

        Every path is planned; only those whose DP value lies within
        ``PLAN_BAND`` of the smallest are built, and the built ones are
        ranked on their edge-by-edge cost, first in path order on ties.
        """
        p3d = self.pattern3d
        paths = pattern_paths_2d((src[1], src[2]), dst_xy)
        self._paths_planned += len(paths)
        if len(paths) == 1:
            best = p3d.route(paths[0], src[0], dst_layer)
            if best is None:
                return None
            self._paths_built += 1
            return best.edges, best.end_layer
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
        self._paths_built += len(contenders)
        self._segments_multi_contender += len(contenders) > 1
        best = min(contenders, key=lambda result: result.cost)
        return best.edges, best.end_layer

    # ------------------------------------------------------------ commit/rip

    def _commit(self, route: NetRoute) -> None:
        # apply_route is order-independent: exact +-1 on usage counters,
        # set-valued dirty marks.
        self.graph.apply_route(route.edges, sign=1)
        for edge in route.edges:
            self._edge_nets.setdefault(edge, set()).add(route.net)
        self.routes[route.net] = route
        if self.cost_cache is not None:
            self.cost_cache.note_commit(route.net, route.edges)

    def rip_up(self, net_name: str) -> None:
        route = self.routes.pop(net_name, None)
        if route is None:
            return
        get_metrics().count("groute.ripup_nets")
        self.graph.apply_route(route.edges, sign=-1)
        for edge in route.edges:
            users = self._edge_nets.get(edge)
            if users is not None:
                users.discard(net_name)
                if not users:
                    del self._edge_nets[edge]
        if self.cost_cache is not None:
            self.cost_cache.note_rip(net_name, route.edges)

    def reroute_nets(self, net_names: list[str]) -> None:
        """Rip up and pattern-reroute nets (CR&P's Update Database step)."""
        for name in net_names:
            self.rip_up(name)
        ordered = sorted(
            net_names,
            key=lambda n: (self.design.net_hpwl(self.design.nets[n]), n),
        )
        for name in ordered:
            self.route_net(name)
        self.field.publish_metrics()
        self._publish_path_metrics()

    # ----------------------------------------------------------------- RRR

    def _rrr_pass(self, max_nets: int = 200) -> bool:
        """One rip-up-and-reroute pass; True when it changed anything.

        The overflow scan is one ``demand > capacity`` mask per layer;
        overflowed edges without committed users contribute no victims.
        """
        victims: list[str] = []
        seen: set[str] = set()
        for edge in self.field.overflow_edges():
            users = self._edge_nets.get(edge)
            if not users:
                continue
            for name in users:
                if name not in seen:
                    seen.add(name)
                    victims.append(name)
        if not victims:
            return False
        metrics = get_metrics()
        metrics.count("groute.rrr_passes")
        metrics.count("groute.rrr_victims", min(len(victims), max_nets))
        victims.sort(
            key=lambda n: (self.design.net_hpwl(self.design.nets[n]), n)
        )
        for name in victims[:max_nets]:
            self._maze_reroute(name)
        return True

    def _maze_reroute(self, net_name: str) -> None:
        """Reroute one net terminal-by-terminal with overflow-averse A*.

        Deadline-safe: if the maze search runs out of budget mid-net,
        the remaining terminals are connected with cheap pattern routes,
        the route is committed (so accounting stays consistent), and the
        deadline propagates to stop the RRR loop.
        """
        self.rip_up(net_name)
        net = self.design.nets[net_name]
        terminals = self.terminals_of(net)
        route = NetRoute(net=net_name, terminals=terminals)
        deadline: DeadlineExceeded | None = None
        if len(terminals) > 1:
            connected: set[Node] = {terminals[0]}
            for terminal in terminals[1:]:
                path: list[GridEdge] | None
                if deadline is None:
                    try:
                        path = maze_route(
                            self.graph,
                            self.cost,
                            self.field,
                            sources=set(connected),
                            targets={terminal},
                            overflow_penalty=10.0 * self.cost.params.via_weight,
                        )
                    except DeadlineExceeded as exc:
                        deadline = exc
                        path = None
                else:
                    path = None
                if path is None:
                    get_metrics().count("groute.maze_fallbacks")
                    fallback = self._route_segment(
                        next(iter(connected)), (terminal[1], terminal[2]), terminal[0]
                    )
                    path = fallback[0] if fallback else []
                route.edges.update(path)
                connected.add(terminal)
                for edge in path:
                    a, b = edge.endpoints(self.graph)
                    connected.add(a)
                    connected.add(b)
        self._commit(route)
        if deadline is not None:
            raise deadline

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

    def invalidate_cost_fields(self) -> None:
        """Force a full cost-field recompute on the next query.

        Graph mutations already notify the field, so this is a
        belt-and-braces hook for transaction rollback and for callers
        that poke the usage arrays directly (tests, invariant checkers).
        """
        self.field.note_all()
        if self.cost_cache is not None:
            self.cost_cache.note_all()

    def accounting_errors(self) -> list[str]:
        """Check graph demand against the committed routes.

        Rebuilds the expected wire/via usage arrays from ``self.routes``
        and compares them with the incrementally-maintained graph state;
        a mismatch means a commit/rip-up bug (or a botched rollback).
        Returns human-readable mismatch descriptions, empty when clean.
        """
        expected_wire = [np.zeros_like(u) for u in self.graph.wire_usage]
        expected_via = [np.zeros_like(u) for u in self.graph.via_usage]
        for route in self.routes.values():
            for edge in route.edges:
                if edge.kind is EdgeKind.WIRE:
                    expected_wire[edge.layer][edge.gx, edge.gy] += 1
                else:
                    expected_via[edge.layer][edge.gx, edge.gy] += 1
        errors: list[str] = []
        for layer, (expected, actual) in enumerate(
            zip(expected_wire, self.graph.wire_usage)
        ):
            if not np.allclose(expected, actual):
                delta = float(np.abs(expected - actual).sum())
                errors.append(
                    f"wire demand mismatch on layer {layer} (|delta|={delta:g})"
                )
        for layer, (expected, actual) in enumerate(
            zip(expected_via, self.graph.via_usage)
        ):
            if not np.array_equal(expected, actual):
                delta = int(np.abs(expected - actual).sum())
                errors.append(
                    f"via demand mismatch below layer {layer + 1} (|delta|={delta})"
                )
        return errors

    # ------------------------------------------------------------- queries

    def enable_incremental_cost(self) -> None:
        """Attach the O(dirty-nets) per-net cost cache (idempotent).

        With the cache on, :meth:`net_cost` serves bit-identical cached
        values and re-prices only nets whose cost a commit/rip-up can
        have changed.  :class:`~repro.core.crp.CrpFramework` attaches it;
        GR-only and baseline flows never pay for the listener.
        """
        if self.cost_cache is None:
            from repro.groute.costcache import NetCostCache

            self.cost_cache = NetCostCache(self)

    def net_cost(self, net_name: str) -> float:
        """Eq. 10 path cost of a net's current route."""
        if self.cost_cache is not None:
            return self.cost_cache.net_cost(net_name)
        return self._net_cost_fresh(net_name)

    def _net_cost_fresh(self, net_name: str) -> float:
        """Uncached :meth:`net_cost` (the oracle the cache must match)."""
        route = self.routes.get(net_name)
        if route is None:
            return 0.0
        return self.field.path_cost(sorted(route.edges, key=_EDGE_ORDER))

    def total_route_cost(self) -> float:
        """Eq. 10 total over every net, summed in canonical design order.

        O(dirty) path_cost work when the incremental cache is enabled;
        identical bits either way (same addends, same association).
        """
        return sum(self.net_cost(name) for name in self.design.nets)

    def cell_cost(self, cell_name: str) -> float:
        """Total route cost of the nets on a cell (Algorithm 1 ordering)."""
        return sum(
            self.net_cost(net.name) for net in self.design.nets_of_cell(cell_name)
        )

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

    def guides(self, expand: int = 1) -> dict[str, list[GuideRect]]:
        """Per-net route guides for the detailed router.

        Every wire edge contributes its two GCells on its layer, every
        via edge its GCell on both layers, and every terminal its GCell
        from its pin layer up to the lowest routed layer.  ``expand``
        grows each guide by that many GCells on every side, mirroring
        the slack detailed routers are given in practice.
        """
        result: dict[str, list[GuideRect]] = {}
        for net_name, route in self.routes.items():
            per_layer: dict[int, set[tuple[int, int]]] = defaultdict(set)
            for edge in route.edges:
                a, b = edge.endpoints(self.graph)
                per_layer[a[0]].add((a[1], a[2]))
                per_layer[b[0]].add((b[1], b[2]))
            for layer, gx, gy in route.terminals:
                per_layer[layer].add((gx, gy))
                per_layer[min(layer + 1, self.graph.num_layers - 1)].add((gx, gy))
            rects: list[GuideRect] = []
            for layer, gcells in sorted(per_layer.items()):
                for gx, gy in sorted(gcells):
                    lo = self.grid.rect_of(
                        max(0, gx - expand), max(0, gy - expand)
                    )
                    hi = self.grid.rect_of(
                        min(self.grid.nx - 1, gx + expand),
                        min(self.grid.ny - 1, gy + expand),
                    )
                    rects.append(GuideRect(layer, lo.union(hi)))
            result[net_name] = _merge_guides(rects)
        return result


def _merge_guides(rects: list[GuideRect]) -> list[GuideRect]:
    """Drop guide rects fully contained in another on the same layer."""
    kept: list[GuideRect] = []
    for g in sorted(rects, key=lambda g: (g.layer, -g.rect.area)):
        if any(
            k.layer == g.layer and k.rect.contains_rect(g.rect) for k in kept
        ):
            continue
        kept.append(g)
    return kept
