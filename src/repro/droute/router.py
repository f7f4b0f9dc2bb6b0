"""The detailed-routing driver.

Consumes a design plus per-net route guides (from the global router) and
produces exact routed geometry on the track lattice with the ISPD-2018
quality numbers: wirelength, via count, and DRVs.

The per-node routing state of a run is one
:class:`repro.droute.indexed.DrouteIndex` — flat arrays addressed by node
id — built by :meth:`DetailedRouter.begin_session`.  The router talks to
it only through its seven session-state methods; the parity suite
overrides ``begin_session`` to install the dict-of-tuples reference from
``tests/oracles/droute.py`` behind the same methods.

One routine, :meth:`DetailedRouter._route_net`, routes a net for the
first pass and the conflict rounds alike.  It finds the terminals' access
nodes and keeps the net's connected and used node sets; the C kernel
does the rest, reading the committed state: one call stamps the guide
region, one call per connection runs its whole ladder (L-shaped tries,
hard search, soft search), and one call patches the net's min-area
islands and lands its occupancy.

The rounds after the first pass negotiate (PathFinder): each one adds
:data:`HISTORY_STEP` pitches of history cost to every contested node --
the nodes of a short, and the planar neighbours of a min-area island
that other nets hold -- rips every net of a short, of an island and
those holders, and reroutes them against the grown costs.  The islands
are the ones the patch could not grow, recorded per net as it routes;
the rounds and the final DRC read that record.  With tracing on, the
first pass and each round record in their span's meta the DRVs by kind
going in and coming out, the nets ripped and the history bumps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.db import Design, Net
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams
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
                span.meta.update(
                    soft_tolled=int(metrics.counter("droute.soft_tolled") - tolled),
                    drvs_in={}, drvs_out=_drv_kinds(book), ripped=0,
                    history_bumps=0,
                )

        for round_index in range(DRC_ROUNDS):
            bumps = metrics.counter("droute.history_bumps")
            ripped = self._negotiate(state, book)
            if not ripped:
                break
            metrics.count("droute.rrr_rounds")
            metrics.count("droute.ripped_nets", len(ripped))
            with tracer.span("droute.rrr_round", round=round_index) as span:
                tolled = metrics.counter("droute.soft_tolled")
                drvs_in = _drv_kinds(book) if tracer.recording else None
                self._rrr_round(ripped, guides, state, book)
                if tracer.recording:
                    span.meta.update(
                        soft_tolled=int(metrics.counter("droute.soft_tolled") - tolled),
                        drvs_in=drvs_in, drvs_out=_drv_kinds(book),
                        ripped=len(ripped),
                        history_bumps=int(metrics.counter("droute.history_bumps") - bumps),
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
        """Route one net against committed state, then commit it.

        ``connected`` and ``used`` stay tuple sets: each connection hands
        the kernel ``connected`` and its targets in their iteration order,
        which seeds the searches and breaks the L tries' ties, and that
        order is what the routes are pinned to."""
        name = net.name
        lattice = self.lattice
        terminal_access: list[list[LNode]] = []
        for pin in net.pins:
            nodes = access_nodes(self.design, lattice, pin)
            terminal_access.append(nodes)

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
            search = state.connect(connected, targets, name, bounds, guide)
            if search is None:
                # an open only if no later round reconnects it
                get_metrics().count("droute.failed_searches")
                opens.append(nodes[0])
                continue
            paths.append(search.path)
            connected.update(search.path)
            used.update(search.path)
            conflict_nodes.extend(search.conflicts)
            connected |= targets

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
        patch_count, islands = state.commit(name, used, terminal_access)
        # Release this net's unused escape reservations: once routed,
        # later nets may pass over its pins' spare landings.
        state.release_reservations(name, used)
        book.net_nodes[name] = used
        book.patch_counts[name] = patch_count
        if islands:
            book.islands[name] = islands
        book.result.paths[name] = paths
        get_metrics().count("droute.nets_routed")


def _drv_kinds(book: _RouteBook) -> dict[str, int]:
    """The DRVs by kind of what ``book`` has committed, as the final DRC
    would count them (kinds with none left out)."""
    kinds = {
        DrcKind.SHORT.value: len(check_shorts(book.conflicts)),
        DrcKind.MIN_AREA.value: sum(map(len, book.islands.values())),
        DrcKind.OPEN.value: sum(
            v.kind is DrcKind.OPEN for v in book.result.violations
        ),
    }
    return {kind: n for kind, n in kinds.items() if n}
