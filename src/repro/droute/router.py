"""The detailed-routing driver.

Consumes a design plus per-net route guides (from the global router) and
produces exact routed geometry on the track lattice with the ISPD-2018
quality numbers: wirelength, via count, and DRVs.

The per-node routing state of a run is one
:class:`repro.droute.indexed.DrouteIndex` — flat arrays addressed by node
id — built by :meth:`DetailedRouter.begin_session`.  The router talks to
it only through its nine session-state methods; the parity suite
overrides ``begin_session`` to install the dict-of-tuples reference from
``tests/oracles/droute.py`` behind the same methods.

One routine, :meth:`DetailedRouter._route_net`, routes a net for the
first pass and the conflict rounds alike: terminal access, guide region,
pattern/A* searches and min-area patching read the committed state, and
only then does the net's own occupancy land.

The rounds after the first pass negotiate (PathFinder): each one adds
:data:`HISTORY_STEP` pitches of history cost to every contested node --
the nodes of a short, and the planar neighbours of a min-area island
that other nets hold -- rips every net of a short, of an island and
those holders, and reroutes them against the grown costs.  The islands
are the ones ``_patch_min_area`` could not grow, recorded per net as it
routes; the rounds and the final DRC read that record.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.db import Design, Net
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams, SearchResult
from repro.droute.drc import DrcKind, DrcViolation, check_shorts
from repro.droute.indexed import DrouteIndex
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.groute import GuideRect
from repro.guard.gcpause import gc_paused
from repro.obs import get_metrics, get_tracer

#: tracks a guide rect grows by on every side
GUIDE_MARGIN_TRACKS = 2
#: negotiation rounds after the first pass
DRC_ROUNDS = 2
#: history cost, in track pitches, a round adds to each contested node
#: (14 gave test5 at k=1 no fewer DRVs than 7, for 0.9 % more vias)
HISTORY_STEP = 7

#: a min-area island: its layer and its (ix, iy) nodes
Island = tuple[int, frozenset[tuple[int, int]]]


@dataclass(slots=True)
class DetailedResult:
    """Routed geometry and quality metrics of one detailed-routing run."""

    wirelength_dbu: int = 0
    vias: int = 0
    violations: list[DrcViolation] = field(default_factory=list)
    paths: dict[str, list[list[LNode]]] = field(default_factory=dict)

    @property
    def num_drvs(self) -> int:
        return len(self.violations)

    def drv_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for v in self.violations:
            counts[v.kind.value] += 1
        return dict(counts)

    def summary(self) -> str:
        return (
            f"wl={self.wirelength_dbu} vias={self.vias} "
            f"drvs={self.num_drvs} ({self.drv_counts()})"
        )


@dataclass(slots=True)
class _RouteBook:
    """What one :meth:`DetailedRouter.route_all` has committed so far."""

    # Round bookkeeping outside the A* inner loop.
    #: shorted node -> (net that routed over it, net that held it)
    conflicts: dict[LNode, tuple[str, str]] = field(default_factory=dict)
    net_nodes: dict[str, set[LNode]] = field(default_factory=dict)
    patch_counts: dict[str, int] = field(default_factory=dict)
    #: net -> the min-area islands its patching could not grow (only
    #: nets that have one)
    islands: dict[str, list[Island]] = field(default_factory=dict)
    result: DetailedResult = field(default_factory=DetailedResult)


class DetailedRouter:
    """Guide-honoring sequential detailed router."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self.lattice = TrackLattice(design.tech, design.die)
        self.params = SearchParams(
            via_cost=4 * self.lattice.pitch,
            conflict_penalty=100 * self.lattice.pitch,
        )
        self._state: DrouteIndex | None = None
        self._book: _RouteBook | None = None
        pitch = self.lattice.pitch
        layers = design.tech.layers
        #: per layer: track nodes a metal island needs to meet min-area
        #: (0 where the layer has no rule)
        self._min_area_nodes = tuple(
            1 + max(0, -(-(l.min_area - l.width**2) // (pitch * l.width)))
            if l.min_area > 0 else 0
            for l in layers
        )
        #: the two lowest horizontal / vertical wire layers (L-pattern legs)
        min_wire = self.lattice.min_wire_layer
        self._h_layers = tuple(
            l.index for l in layers if l.is_horizontal and l.index >= min_wire
        )[:2]
        self._v_layers = tuple(
            l.index for l in layers if l.is_vertical and l.index >= min_wire
        )[:2]

    # ------------------------------------------------------------------ API

    def begin_session(self) -> DrouteIndex:
        """Build the per-run routing state (obstacle map + occupancy).

        Split out of :meth:`route_all` so the parity suite can override
        it to install the reference state from ``tests/oracles/droute.py``.
        """
        owner, reservations = build_obstacle_map(self.design, self.lattice)
        state = DrouteIndex(
            self.lattice, owner, reservations, self.params, GUIDE_MARGIN_TRACKS
        )
        self._state = state
        return state

    @gc_paused()
    def route_all(self, guides: dict[str, list[GuideRect]]) -> DetailedResult:
        """Route every net; ``guides`` come from the global router
        (:meth:`GlobalRouter.guides`, an entry for every net)."""
        tracer = get_tracer()
        with tracer.span("droute.obstacles"):
            state = self.begin_session()
        book = self._book = _RouteBook()
        result = book.result
        # a pass's ``soft_tolled`` meta is the counter's growth across it
        metrics = get_metrics()
        with tracer.span("droute.first_pass") as span:
            tolled = metrics.counter("droute.soft_tolled")
            nets = self.design.nets
            for name in self.design.routing_order(nets):
                self._route_net(nets[name], guides[name], state, book)
            if tracer.recording:
                span.meta["soft_tolled"] = int(
                    metrics.counter("droute.soft_tolled") - tolled
                )

        for round_index in range(DRC_ROUNDS):
            ripped = self._negotiate(state, book)
            if not ripped:
                break
            metrics.count("droute.rrr_rounds")
            metrics.count("droute.ripped_nets", len(ripped))
            with tracer.span("droute.rrr_round", round=round_index) as span:
                tolled = metrics.counter("droute.soft_tolled")
                self._rrr_round(ripped, guides, state, book)
                if tracer.recording:
                    span.meta["soft_tolled"] = int(
                        metrics.counter("droute.soft_tolled") - tolled
                    )

        with tracer.span("droute.drc"):
            self._tally(result, book.patch_counts)
            result.violations.extend(check_shorts(book.conflicts))
            result.violations.extend(
                DrcViolation(
                    kind=DrcKind.MIN_AREA, layer=layer, net_a=name,
                    node=(layer, *min(component)),
                )
                for name, islands in book.islands.items()
                for layer, component in islands
            )
        metrics.count("droute.drvs", result.num_drvs)
        metrics.count(
            "droute.opens",
            sum(v.kind is DrcKind.OPEN for v in result.violations),
        )
        metrics.gauge("droute.wirelength_dbu", result.wirelength_dbu)
        return result

    def _negotiate(self, state: DrouteIndex, book: _RouteBook) -> set[str]:
        """Grow the history of every contested node; the nets to rip.

        Contested are the nodes of a short and the planar neighbours of
        a min-area island that another net holds.  The rip set is both
        nets of every short, every net with an island and those
        holders.  History only grows, and every addend is the same
        integral dbu amount, so the order of the additions is immaterial.
        """
        lattice = self.lattice
        contested = list(book.conflicts)
        ripped = {name for pair in book.conflicts.values() for name in pair}
        for name, islands in book.islands.items():
            ripped.add(name)
            for layer, component in islands:
                for ix, iy in component:
                    here = (layer, ix, iy)
                    for node in lattice.wire_neighbors(here) + lattice.jog_neighbors(here):
                        holder = state.holder_name(node)
                        if holder and holder not in (name, BLOCKED):
                            contested.append(node)
                            ripped.add(holder)
        if contested:
            state.add_history(contested, float(HISTORY_STEP * lattice.pitch))
            get_metrics().count("droute.history_bumps", len(contested))
        return ripped

    def _rrr_round(
        self,
        ripped: set[str],
        guides: dict[str, list[GuideRect]],
        state: DrouteIndex,
        book: _RouteBook,
    ) -> None:
        """One negotiation round: rip every net of ``ripped``, reroute
        them in routing order.  Nets outside ``ripped`` are not touched."""
        result = book.result
        for name in sorted(ripped):
            state.rip(name, book.net_nodes.pop(name, ()))
            result.paths.pop(name, None)
            book.patch_counts.pop(name, None)
            book.islands.pop(name, None)
        book.conflicts = {
            node: pair
            for node, pair in book.conflicts.items()
            if pair[0] not in ripped and pair[1] not in ripped
        }
        result.violations = [
            v
            for v in result.violations
            if not (v.kind is DrcKind.OPEN and v.net_a in ripped)
        ]
        nets = self.design.nets
        for name in self.design.routing_order(ripped):
            self._route_net(nets[name], guides[name], state, book)

    def _tally(self, result: DetailedResult, patch_counts: dict[str, int]) -> None:
        """Compute wirelength and via totals from the final geometry."""
        pitch = self.lattice.pitch
        wirelength = 0
        vias = 0
        for paths in result.paths.values():
            for path in paths:
                for a, b in zip(path[:-1], path[1:]):
                    if a[0] == b[0]:
                        wirelength += pitch
                    else:
                        vias += 1
        wirelength += pitch * sum(patch_counts.values())
        result.wirelength_dbu = wirelength
        result.vias = vias

    # -------------------------------------------------------------- per-net

    def _route_net(
        self,
        net: Net,
        net_guides: list[GuideRect],
        state: DrouteIndex,
        book: _RouteBook,
    ) -> None:
        """Route one net against committed state, then commit it."""
        name = net.name
        lattice = self.lattice
        terminal_access: list[list[LNode]] = []
        for pin in net.pins:
            nodes = access_nodes(self.design, lattice, pin)
            terminal_access.append(nodes)
        pins = {n for nodes in terminal_access for n in nodes}

        guide, bounds = state.guide_region(net_guides, terminal_access)

        # Per-net assembly sets (a few hundred nodes), not search state.
        connected: set[LNode] = set(terminal_access[0])
        used: set[LNode] = set(terminal_access[0])
        paths: list[list[LNode]] = []
        opens: list[LNode] = []
        conflict_nodes: list[LNode] = []

        for nodes in terminal_access[1:]:
            targets = set(nodes)
            if targets & connected:
                connected |= targets
                used |= targets
                continue
            search = self._fast_pattern(name, connected, targets, state, guide)
            if search is None:
                search = state.connect(
                    connected, targets, name, bounds, guide, soft=False
                )
            if search is None:
                search = state.connect(
                    connected, targets, name, bounds, None, soft=True
                )
            if search is None:
                # an open only if no later round reconnects it
                get_metrics().count("droute.failed_searches")
                opens.append(nodes[0])
                continue
            paths.append(search.path)
            for node in search.path:
                connected.add(node)
                used.add(node)
            conflict_nodes.extend(search.conflicts)
            connected |= targets

        patch_count, islands = self._patch_min_area(name, used, pins, state)
        # Resolve conflict holders against committed state *before* this
        # net's own occupancy lands, as they stood when it was searched.
        for node in conflict_nodes:
            holder = state.holder_name(node)
            if holder and holder not in (name, BLOCKED):
                book.conflicts[node] = (name, holder)
        for node in opens:
            book.result.violations.append(
                DrcViolation(
                    kind=DrcKind.OPEN, layer=node[0], net_a=name, node=node
                )
            )
        used_sorted = sorted(used)
        state.commit_used(name, used_sorted)
        # Rebuilt from the sorted list, so the DRC pass meets the nodes
        # in an order that does not depend on how they were found.
        used = set(used_sorted)
        # Release this net's unused escape reservations: once routed,
        # later nets may pass over its pins' spare landings.
        state.release_reservations(name, used)
        book.net_nodes[name] = used
        book.patch_counts[name] = patch_count
        if islands:
            book.islands[name] = islands
        book.result.paths[name] = paths
        get_metrics().count("droute.nets_routed")

    # ------------------------------------------------------------- patching

    def _patch_min_area(
        self,
        net_name: str,
        used: set[LNode],
        pins: set[LNode],
        state: DrouteIndex,
    ) -> tuple[int, list[Island]]:
        """Grow under-sized metal patches along the preferred direction.

        Real detailed routers insert metal patches where via stacks leave
        isolated landing pads below the minimum-area rule; this models
        that by claiming free adjacent track nodes and charging their
        wirelength; a step onto a node the net already holds claims and
        charges nothing.  Returns the patch node count and the islands that
        stayed under-sized: each layer's components of ``used`` as they
        stand after every patch on it, without a pin node and below the
        layer's node count.
        """
        lattice = self.lattice
        patched = 0
        islands: list[Island] = []
        patch_free = state.patch_free
        per_layer: dict[int, set[tuple[int, int]]] = defaultdict(set)
        for layer, ix, iy in used:
            per_layer[layer].add((ix, iy))
        for layer, points in per_layer.items():
            min_nodes = self._min_area_nodes[layer]
            if not min_nodes:
                continue
            stuck: list[tuple[int, int]] = []
            remaining = set(points)
            while remaining:
                seed = remaining.pop()
                component = _flood(seed, remaining)
                if len(component) >= min_nodes:
                    continue
                if any((layer, ix, iy) in pins for ix, iy in component):
                    continue
                frontier = deque(sorted(component))
                while len(component) < min_nodes and frontier:
                    ix, iy = frontier.popleft()
                    grown = False
                    here = (layer, ix, iy)
                    for node in lattice.wire_neighbors(here) + lattice.jog_neighbors(here):
                        key = (node[1], node[2])
                        if key in component:
                            continue
                        if not patch_free(node, net_name):
                            continue
                        component.add(key)
                        points.add(key)
                        if node not in used:
                            used.add(node)
                            patched += 1
                        frontier.append(key)
                        grown = True
                        break
                    if grown:
                        frontier.appendleft((ix, iy))
                if len(component) < min_nodes:
                    stuck.append(seed)
            if not stuck:
                continue
            # A patch may have reached another component of the net, so
            # a stuck island is judged as it stands on the final layer.
            remaining = set(points)
            for seed in stuck:
                if seed not in remaining:
                    continue
                remaining.discard(seed)
                component = _flood(seed, remaining)
                if len(component) < min_nodes and not any(
                    (layer, ix, iy) in pins for ix, iy in component
                ):
                    islands.append((layer, frozenset(component)))
        return patched, islands

    # ------------------------------------------------------------ fast path

    def _fast_pattern(
        self,
        net: str,
        sources: set[LNode],
        targets: set[LNode],
        state: DrouteIndex,
        guide,
    ) -> SearchResult | None:
        """Try clean L-shaped connections before falling back to A*.

        Picks the closest (source, target) pair -- of equally close
        pairs, the first in the sets' iteration order -- then tries both bend
        orders over the two nearest horizontal/vertical layer choices.
        A candidate is accepted only when every node on it is free for
        this net and inside the guides — so the result is always one
        the hard A* pass could also have found.

        A candidate is its six corners (source, two bends on each leg
        layer, target), and its cost is closed-form, ``pitch`` per wire
        step plus ``via_cost`` per via step -- exact, every addend being
        an integral dbu count.  Candidates are tried cheapest first,
        candidate order breaking ties, and the first clear one wins: the
        earliest of the cheapest clear ones, as when every candidate was
        built and checked.  So only a candidate that could still win is
        checked (``state.polyline_clear``, over its node-id legs) and only
        the winner is expanded into nodes.  The reference that built all
        eight paths as tuples is ``tests/oracles/droute.py``.
        """
        best_distance = None
        for s in sources:
            sl, sx, sy = s
            for t in targets:
                distance = abs(sx - t[1]) + abs(sy - t[2]) + abs(sl - t[0])
                if best_distance is None or distance < best_distance:
                    best_distance = distance
                    src, dst = s, t

        (sl, sx, sy), (tl, tx, ty) = src, dst
        wire = self.lattice.pitch * (abs(tx - sx) + abs(ty - sy))
        via_cost = self.params.via_cost
        candidates = []
        for h in self._h_layers:
            for v in self._v_layers:
                # horizontal first: src -> (tx, sy) on h, then vertical on v
                candidates.append((
                    wire + via_cost * (abs(h - sl) + abs(v - h) + abs(tl - v)),
                    len(candidates),
                    (src, (h, sx, sy), (h, tx, sy), (v, tx, sy), (v, tx, ty), dst),
                ))
                # vertical first
                candidates.append((
                    wire + via_cost * (abs(v - sl) + abs(h - v) + abs(tl - h)),
                    len(candidates),
                    (src, (v, sx, sy), (v, sx, ty), (h, sx, ty), (h, tx, ty), dst),
                ))
        candidates.sort()
        for cost, _, corners in candidates:
            if state.polyline_clear(corners, net, guide):
                return SearchResult(
                    path=_polyline_nodes(corners), cost=float(cost), conflicts=[]
                )
        return None


def _polyline_nodes(corners) -> list[LNode]:
    """Every lattice node of the axis-parallel polyline through ``corners``
    in walking order (a zero-length leg adds nothing)."""
    path = [corners[0]]
    for layer, ix, iy in corners[1:]:
        l0, x0, y0 = path[-1]
        if layer != l0:
            step = 1 if layer > l0 else -1
            path += [(l, ix, iy) for l in range(l0 + step, layer + step, step)]
        elif ix != x0:
            step = 1 if ix > x0 else -1
            path += [(layer, x, iy) for x in range(x0 + step, ix + step, step)]
        elif iy != y0:
            step = 1 if iy > y0 else -1
            path += [(layer, ix, y) for y in range(y0 + step, iy + step, step)]
    return path


def _flood(seed: tuple[int, int], remaining: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The planar component of ``seed`` within ``remaining``, which loses
    every node of it."""
    component = {seed}
    stack = [seed]
    while stack:
        ix, iy = stack.pop()
        for nxt in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
            if nxt in remaining:
                remaining.remove(nxt)
                component.add(nxt)
                stack.append(nxt)
    return component
