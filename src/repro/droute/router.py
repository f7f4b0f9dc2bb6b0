"""The detailed-routing driver.

Consumes a design plus per-net route guides (from the global router) and
produces exact routed geometry on the track lattice with the ISPD-2018
quality numbers: wirelength, via count, and DRVs.

The per-node routing state of a run is one
:class:`repro.droute.indexed.DrouteIndex` — flat arrays addressed by node
id — built by :meth:`DetailedRouter.begin_session`.  The router talks to
it only through its eight session-state methods; the parity suite
overrides ``begin_session`` to install the dict-of-tuples reference from
``tests/oracles/droute.py`` behind the same methods.

Per-net work is split into a pure *compute* step (terminal access, guide
region, pattern/A* searches, min-area patching — no committed-state
mutation) and a *commit* step that owns every write to it; the first
pass and the conflict rounds share both.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.db import Design, Net
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams, SearchResult, SearchStats
from repro.droute.drc import DrcKind, DrcViolation, check_min_area, check_shorts
from repro.droute.indexed import DrouteIndex
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.guard.deadline import check_deadline
from repro.guard.gcpause import gc_paused
from repro.lefdef.guides import GuideRect
from repro.obs import get_metrics, get_tracer


@dataclass(slots=True)
class DetailedResult:
    """Routed geometry and quality metrics of one detailed-routing run."""

    wirelength_dbu: int = 0
    vias: int = 0
    violations: list[DrcViolation] = field(default_factory=list)
    runtime_s: float = 0.0
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
class NetComputation:
    """The pure compute half of routing one net.

    Produced by :meth:`DetailedRouter._net_compute` against committed
    state, applied by :meth:`DetailedRouter._commit_net`.
    """

    name: str
    paths: list[list[LNode]]
    #: every node the net occupies (sorted; includes patch growth)
    used: list[LNode]
    pins: list[LNode]
    patch_count: int
    #: anchor node of each unreachable terminal (one OPEN DRV each)
    opens: list[LNode]
    #: path nodes held by another net at search time (soft-pass shorts)
    conflict_nodes: list[LNode]


@dataclass(slots=True)
class _RouteBook:
    """What one :meth:`DetailedRouter.route_all` has committed so far."""

    # Round bookkeeping outside the A* inner loop.
    #: shorted node -> (net that routed over it, net that held it)
    conflicts: dict[LNode, tuple[str, str]] = field(default_factory=dict)
    net_nodes: dict[str, set[LNode]] = field(default_factory=dict)
    pin_nodes: dict[str, set[LNode]] = field(default_factory=dict)
    patch_counts: dict[str, int] = field(default_factory=dict)
    result: DetailedResult = field(default_factory=DetailedResult)


class DetailedRouter:
    """Guide-honoring sequential detailed router."""

    def __init__(
        self,
        design: Design,
        params: SearchParams | None = None,
        guide_margin_tracks: int = 2,
        drc_rounds: int = 2,
    ) -> None:
        self.design = design
        self.lattice = TrackLattice(design.tech, design.die)
        self.params = params or SearchParams(
            via_cost=4 * self.lattice.pitch,
            conflict_penalty=100 * self.lattice.pitch,
            off_guide_penalty=10 * self.lattice.pitch,
        )
        self.guide_margin = guide_margin_tracks
        #: conflict-driven rip-up-and-reroute rounds after the first pass
        self.drc_rounds = drc_rounds
        self._state: DrouteIndex | None = None
        self._session_guides: dict[str, list[GuideRect]] | None = None
        self._stats = SearchStats()
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

    def begin_session(
        self, guides: dict[str, list[GuideRect]] | None
    ) -> DrouteIndex:
        """Build the per-run routing state (obstacle map + occupancy).

        Split out of :meth:`route_all` so the parity suite can override
        it to install the reference state from ``tests/oracles/droute.py``.
        """
        owner, reservations = build_obstacle_map(self.design, self.lattice)
        state = DrouteIndex(
            self.lattice, owner, reservations, self.params, self.guide_margin
        )
        self._state = state
        self._session_guides = guides
        self._stats = SearchStats()
        return state

    def compute_net(self, net_name: str) -> NetComputation:
        """Compute one net against the session state.

        Pure with respect to committed state; the caller owns the
        commit.  Search counters flush to the metrics registry on return.
        """
        net = self.design.nets[net_name]
        guides = self._session_guides
        stats = SearchStats()
        try:
            return self._net_compute(
                net,
                guides.get(net_name) if guides is not None else None,
                self._state,
                stats,
            )
        finally:
            stats.flush()

    @gc_paused()
    def route_all(
        self, guides: dict[str, list[GuideRect]] | None = None
    ) -> DetailedResult:
        """Route every net; ``guides`` come from the global router."""
        start = time.perf_counter()
        tracer = get_tracer()
        with tracer.span("droute.obstacles"):
            state = self.begin_session(guides)
        stats = self._stats
        book = self._book = _RouteBook()
        result = book.result

        with tracer.span("droute.first_pass") as span:
            order = sorted(
                self.design.nets.values(),
                key=lambda n: (self.design.net_hpwl(n), n.name),
            )
            for net in order:
                check_deadline("droute.net")
                comp = self._net_compute(
                    net,
                    guides.get(net.name) if guides is not None else None,
                    state,
                    stats,
                )
                self._commit_net(comp, state, book)
            if tracer.recording:
                span.meta["soft_tolled"] = stats.tolled

        # Conflict-driven rip-up-and-reroute: every net involved in a
        # short is ripped (both aggressor and victim) and rerouted with a
        # clean slate — the detailed-routing analogue of the global
        # router's RRR passes.
        metrics = get_metrics()
        previous: set[str] = set()
        for round_index in range(self.drc_rounds):
            ripped = {name for pair in book.conflicts.values() for name in pair}
            if not ripped:
                break
            if ripped == previous:
                # Fixed point: the last round started from this same rip
                # set and came back to it, so this one (and every later
                # one) would rewrite the result with itself.
                metrics.count("droute.rrr_fixed_point")
                break
            previous = ripped
            metrics.count("droute.rrr_rounds")
            metrics.count("droute.ripped_nets", len(ripped))
            tolled = stats.tolled
            with tracer.span("droute.rrr_round", round=round_index) as span:
                self._rrr_round(ripped, guides, state, stats, book)
                if tracer.recording:
                    span.meta["soft_tolled"] = stats.tolled - tolled

        with tracer.span("droute.drc"):
            self._tally(result, book.patch_counts)
            result.violations.extend(check_shorts(book.conflicts))
            result.violations.extend(
                check_min_area(self.lattice, book.net_nodes, book.pin_nodes)
            )
        stats.flush()
        metrics.count("droute.drvs", result.num_drvs)
        metrics.gauge("droute.wirelength_dbu", result.wirelength_dbu)
        result.runtime_s = time.perf_counter() - start
        return result

    def _rrr_round(
        self,
        ripped: set[str],
        guides: dict[str, list[GuideRect]] | None,
        state: DrouteIndex,
        stats: SearchStats,
        book: _RouteBook,
    ) -> None:
        """One conflict round: rip every net of ``ripped``, reroute them.

        Nets outside ``ripped`` are not touched, so the round is a pure
        function of (the occupancy they leave behind, ``ripped``).
        """
        result = book.result
        for name in sorted(ripped):
            state.rip(name, book.net_nodes.pop(name, ()))
            result.paths.pop(name, None)
            book.patch_counts.pop(name, None)
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
        for name in sorted(
            ripped, key=lambda n: (self.design.net_hpwl(nets[n]), n)
        ):
            comp = self._net_compute(
                nets[name],
                guides.get(name) if guides is not None else None,
                state,
                stats,
            )
            self._commit_net(comp, state, book)

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

    def _net_compute(
        self,
        net: Net,
        net_guides: list[GuideRect] | None,
        state: DrouteIndex,
        stats: SearchStats,
    ) -> NetComputation:
        """Route one net against committed state without committing."""
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
            search = self._fast_pattern(net.name, connected, targets, state, guide)
            if search is None:
                search = state.connect(
                    connected, targets, net.name, bounds, guide,
                    soft=False, stats=stats,
                )
            if search is None:
                search = state.connect(
                    connected, targets, net.name, bounds, None,
                    soft=True, stats=stats,
                )
            if search is None:
                get_metrics().count("droute.opens")
                opens.append(nodes[0])
                continue
            paths.append(search.path)
            for node in search.path:
                connected.add(node)
                used.add(node)
            conflict_nodes.extend(search.conflicts)
            connected |= targets

        patch_count = self._patch_min_area(net.name, used, pins, state)
        return NetComputation(
            name=net.name,
            paths=paths,
            used=sorted(used),
            pins=sorted(pins),
            patch_count=patch_count,
            opens=opens,
            conflict_nodes=conflict_nodes,
        )

    def _commit_net(
        self, comp: NetComputation, state: DrouteIndex, book: _RouteBook
    ) -> None:
        """Apply one computed net to committed state."""
        name = comp.name
        # Resolve conflict holders against live committed state *before*
        # this net's own occupancy lands; nothing mutates between a net's
        # searches and its commit, so this matches search-time resolution.
        for node in comp.conflict_nodes:
            holder = state.holder_name(node)
            if holder and holder not in (name, BLOCKED):
                book.conflicts[node] = (name, holder)
        for node in comp.opens:
            book.result.violations.append(
                DrcViolation(
                    kind=DrcKind.OPEN, layer=node[0], net_a=name, node=node
                )
            )
        used = set(comp.used)
        state.commit_used(name, comp.used)
        # Release this net's unused escape reservations: once routed,
        # later nets may pass over its pins' spare landings.
        state.release_reservations(name, used)
        book.net_nodes[name] = used
        book.pin_nodes[name] = set(comp.pins)
        book.patch_counts[name] = comp.patch_count
        book.result.paths[name] = comp.paths
        get_metrics().count("droute.nets_routed")

    # ------------------------------------------------------------- patching

    def _patch_min_area(
        self,
        net_name: str,
        used: set[LNode],
        pins: set[LNode],
        state: DrouteIndex,
    ) -> int:
        """Grow under-sized metal patches along the preferred direction.

        Real detailed routers insert metal patches where via stacks leave
        isolated landing pads below the minimum-area rule; this models
        that by claiming free adjacent track nodes and charging their
        wirelength.  Patches that cannot grow are left for the DRC pass
        to flag.
        """
        lattice = self.lattice
        patched = 0
        patch_free = state.patch_free
        per_layer: dict[int, set[tuple[int, int]]] = defaultdict(set)
        for layer, ix, iy in used:
            per_layer[layer].add((ix, iy))
        for layer, points in per_layer.items():
            min_nodes = self._min_area_nodes[layer]
            if not min_nodes:
                continue
            remaining = set(points)
            while remaining:
                check_deadline("droute.patch")
                seed = remaining.pop()
                component = {seed}
                stack = [seed]
                while stack:
                    ix, iy = stack.pop()
                    for nxt in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
                        if nxt in remaining:
                            remaining.remove(nxt)
                            component.add(nxt)
                            stack.append(nxt)
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
                        used.add(node)
                        frontier.append(key)
                        patched += 1
                        grown = True
                        break
                    if grown:
                        frontier.appendleft((ix, iy))
        return patched

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

        Picks the closest (source, target) pair, then tries both bend
        orders over the two nearest horizontal/vertical layer choices.
        A candidate is accepted only when every node on it is free for
        this net and inside the guides — so the result is always one
        the hard A* pass could also have found.
        """
        lattice = self.lattice
        if len(sources) * len(targets) <= 64:
            src, dst = min(
                ((s, t) for s in sources for t in targets),
                key=lambda pair: (
                    abs(pair[0][1] - pair[1][1])
                    + abs(pair[0][2] - pair[1][2])
                    + abs(pair[0][0] - pair[1][0])
                ),
            )
        else:
            src, dst = _nearest_pair(sources, targets)

        def stack(ix: int, iy: int, l0: int, l1: int) -> list[LNode]:
            step = 1 if l1 >= l0 else -1
            return [(l, ix, iy) for l in range(l0, l1 + step, step)]

        def run(layer: int, fixed: int, a: int, b: int, horizontal: bool) -> list[LNode]:
            step = 1 if b >= a else -1
            if horizontal:
                return [(layer, v, fixed) for v in range(a, b + step, step)]
            return [(layer, fixed, v) for v in range(a, b + step, step)]

        (sl, sx, sy), (tl, tx, ty) = src, dst
        candidates: list[list[LNode]] = []
        for h in self._h_layers:
            for v in self._v_layers:
                # horizontal first: src -> (tx, sy) on h, then vertical on v
                path = (
                    stack(sx, sy, sl, h)
                    + run(h, sy, sx, tx, True)[1:]
                    + stack(tx, sy, h, v)[1:]
                    + run(v, tx, sy, ty, False)[1:]
                    + stack(tx, ty, v, tl)[1:]
                )
                candidates.append(path)
                # vertical first
                path = (
                    stack(sx, sy, sl, v)
                    + run(v, sx, sy, ty, False)[1:]
                    + stack(sx, ty, v, h)[1:]
                    + run(h, ty, sx, tx, True)[1:]
                    + stack(tx, ty, h, tl)[1:]
                )
                candidates.append(path)

        best: list[LNode] | None = None
        best_cost = float("inf")
        for path in candidates:
            # Deduplicate consecutive repeats (degenerate runs/stacks).
            clean: list[LNode] = []
            for node in path:
                if not clean or node != clean[-1]:
                    clean.append(node)
            if not state.run_clear(clean[1:], net, guide):
                continue
            cost = 0.0
            for a, b in zip(clean, clean[1:]):
                cost += lattice.pitch if a[0] == b[0] else self.params.via_cost
            if cost < best_cost:
                best = clean
                best_cost = cost
        if best is None:
            return None
        return SearchResult(path=best, cost=best_cost, conflicts=[])


def _nearest_pair(
    sources: set[LNode], targets: set[LNode]
) -> tuple[LNode, LNode]:
    """True nearest (source, target) pair under the L1 node metric.

    Replaces the old arbitrary single-pair pick above 64 combinations:
    the distance matrix is vectorized over sorted node lists (argmin
    ties resolve to the lexicographically smallest pair, so the choice
    is deterministic).  Truly enormous products are first shortlisted to
    the per-axis sorted extremes of each side — the nearest pair lives
    at facing extremes along some axis for the elongated components this
    regime sees, and even a near-optimal pick only costs the fast-path
    candidate a few extra tracks.
    """
    import numpy as np

    src = sorted(sources)
    dst = sorted(targets)
    if len(src) * len(dst) > 1 << 22:
        src = _axis_extremes(src)
        dst = _axis_extremes(dst)
    s = np.asarray(src, dtype=np.int64)
    t = np.asarray(dst, dtype=np.int64)
    dist = (
        np.abs(s[:, None, 1] - t[None, :, 1])
        + np.abs(s[:, None, 2] - t[None, :, 2])
        + np.abs(s[:, None, 0] - t[None, :, 0])
    )
    flat = int(np.argmin(dist))
    return src[flat // len(dst)], dst[flat % len(dst)]


def _axis_extremes(nodes: list[LNode], keep: int = 8) -> list[LNode]:
    """The ``keep`` smallest/largest nodes along each axis (deduplicated)."""
    chosen: set[int] = set()
    for axis in (0, 1, 2):
        order = sorted(range(len(nodes)), key=lambda i: nodes[i][axis])
        chosen.update(order[:keep])
        chosen.update(order[-keep:])
    return [nodes[i] for i in sorted(chosen)]
