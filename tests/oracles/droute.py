"""Dict-of-tuples reference for the detailed-routing kernel.

``astar_connect`` / ``_build_result`` (from ``src/repro/droute/astar.py``)
and ``_DictState`` (from ``src/repro/droute/router.py``) are the
pre-indexed implementations, moved here unchanged but for their lint
suppressions.  The flat-array :class:`repro.droute.indexed.DrouteIndex`
must produce byte-identical paths, costs and conflict lists.

Added since: :func:`fast_pattern_reference`, the router's L-shaped tries
as they ran before they were priced in closed form -- all eight L paths
built as tuples, each checked node by node through
``_DictState.run_clear`` -- which ``_DictState.connect`` runs as its
first rung; :func:`pocket_look`, the backward look of
``repro.droute.indexed.pocket_closed`` over tuples and sets, and the
*toll* it proves for a soft search -- ``astar_connect`` takes it in the
textbook form, ``h(n) + toll`` for every node outside the look's marked
set, at weight 1.0.  A hard search the look calls closed is still run
here, and must come back ``None``.  The negotiated history cost: a
``history`` dict on ``_DictState``, added to every step's cost after the
conflict penalty, as ``_kernel.c`` adds its per-node buffer.

Moved here when the connection ladder, the guide stamp and the min-area
patch went into ``_kernel.c``: :func:`guide_spans` (the stamp's span
math), :func:`fast_pattern` with :func:`_polyline_nodes` (the tries in
closed form, cheapest first, as the kernel runs them) and
:func:`min_area_patch` with :func:`_flood` (the router's patch, seeds in
sorted order).

:class:`OracleDetailedRouter` installs the reference through the one
seam the router has: :meth:`DetailedRouter.begin_session` builds the
session state, and everything else talks to it through the seven state
methods (``guide_region, connect, commit, holder_name,
release_reservations, rip, add_history``).

:func:`min_area_islands` / :func:`check_min_area` are the independent
min-area checker: every net's components per layer, scanned from the
final node sets, which the router's island record must equal.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque

from repro.droute.astar import SearchParams, SearchResult
from repro.droute.drc import DrcKind, DrcViolation
from repro.droute import indexed as _indexed
from repro.droute.indexed import FAST, HARD, LADDER, SOFT
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.droute.router import GUIDE_MARGIN_TRACKS, DetailedRouter
from repro.obs import get_metrics


class OracleDetailedRouter(DetailedRouter):
    """A :class:`DetailedRouter` whose sessions run on :class:`_DictState`."""

    def begin_session(self):
        super().begin_session()
        owner, reservations = build_obstacle_map(self.design, self.lattice)
        self._state = _DictState(
            self.lattice, owner, reservations, self.params, GUIDE_MARGIN_TRACKS
        )
        return self._state


def guide_spans(
    lattice: TrackLattice,
    margin: int,
    net_guides,
    terminal_access: list[list[LNode]],
):
    """Per-layer guide spans + search bounds for one net (pure math)."""
    all_nodes = [n for nodes in terminal_access for n in nodes]
    ix_vals = [n[1] for n in all_nodes]
    iy_vals = [n[2] for n in all_nodes]

    per_layer: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
    g_ix0, g_iy0 = lattice.nx - 1, lattice.ny - 1
    g_ix1, g_iy1 = 0, 0
    for guide in net_guides:
        ix0, iy0, ix1, iy1 = lattice.index_rect(guide.rect)
        ix0 = max(0, ix0 - margin)
        iy0 = max(0, iy0 - margin)
        ix1 = min(lattice.nx - 1, ix1 + margin)
        iy1 = min(lattice.ny - 1, iy1 + margin)
        per_layer[guide.layer].append((ix0, iy0, ix1, iy1))
        g_ix0 = min(g_ix0, ix0)
        g_iy0 = min(g_iy0, iy0)
        g_ix1 = max(g_ix1, ix1)
        g_iy1 = max(g_iy1, iy1)
    g_ix0 = min(g_ix0, max(0, min(ix_vals) - margin))
    g_iy0 = min(g_iy0, max(0, min(iy_vals) - margin))
    g_ix1 = max(g_ix1, min(lattice.nx - 1, max(ix_vals) + margin))
    g_iy1 = max(g_iy1, min(lattice.ny - 1, max(iy_vals) + margin))
    return per_layer, (g_ix0, g_iy0, g_ix1, g_iy1)


def leg_layers(lattice: TrackLattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two lowest horizontal and the two lowest vertical wire layers:
    the layers the L tries' legs run on."""
    layers = [
        l for l in lattice.tech.layers if l.index >= lattice.min_wire_layer
    ]
    return (
        tuple(l.index for l in layers if l.is_horizontal)[:2],
        tuple(l.index for l in layers if l.is_vertical)[:2],
    )


def fast_pattern_reference(
    state: _DictState,
    net: str,
    sources: set[LNode],
    targets: set[LNode],
    guide,
) -> SearchResult | None:
    """Clean L-shaped connections, every candidate built and checked.

    Picks the closest (source, target) pair, the first of equally close
    ones, then tries both bend orders over the two nearest
    horizontal/vertical layer choices; the first of the cheapest
    candidates whose every node after the source is free for this net
    and inside the guides wins.
    """
    lattice = state.lattice
    src, dst = min(
        ((s, t) for s in sources for t in targets),
        key=lambda pair: (
            abs(pair[0][1] - pair[1][1])
            + abs(pair[0][2] - pair[1][2])
            + abs(pair[0][0] - pair[1][0])
        ),
    )

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
    h_layers, v_layers = leg_layers(lattice)
    for h in h_layers:
        for v in v_layers:
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
            cost += lattice.pitch if a[0] == b[0] else state.params.via_cost
        if cost < best_cost:
            best = clean
            best_cost = cost
    if best is None:
        return None
    return SearchResult(path=best, cost=best_cost, conflicts=[])


def fast_pattern(
    state: _DictState,
    net: str,
    sources: set[LNode],
    targets: set[LNode],
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
    checked (``state.polyline_clear``) and only the winner is expanded
    into nodes.
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
    wire = state.lattice.pitch * (abs(tx - sx) + abs(ty - sy))
    via_cost = state.params.via_cost
    candidates = []
    h_layers, v_layers = leg_layers(state.lattice)
    for h in h_layers:
        for v in v_layers:
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


def min_area_patch(
    lattice: TrackLattice,
    patch_free,
    net_name: str,
    used: set[LNode],
    pins: set[LNode],
    reverse: bool = False,
) -> tuple[int, list]:
    """Grow under-sized metal patches along the preferred direction.

    Claims free adjacent track nodes for every island of ``used`` below
    its layer's node count and without a pin node, seeds in sorted order
    (``reverse``: the other way round); a step onto a node the net
    already holds claims and charges nothing.  ``patch_free(node,
    net_name)`` says whether a node may be claimed.  Returns the patch
    node count and the islands that stayed under-sized: each layer's
    components of ``used`` as they stand after every patch on it, without
    a pin node and below the layer's node count.
    """
    min_area_nodes = lattice.min_area_nodes()
    patched = 0
    islands: list = []
    per_layer: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for layer, ix, iy in used:
        per_layer[layer].add((ix, iy))
    for layer, points in sorted(per_layer.items()):
        min_nodes = min_area_nodes[layer]
        if not min_nodes:
            continue
        stuck: list[tuple[int, int]] = []
        remaining = set(points)
        for seed in sorted(points, reverse=reverse):
            if seed not in remaining:
                continue
            remaining.discard(seed)
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


class _DictState:
    """Dict-of-tuples oracle backend.

    The pre-indexed router's state, kept for parity testing; its
    constructor takes what ``DrouteIndex``'s takes.
    """

    indexed = False

    def __init__(
        self,
        lattice: TrackLattice,
        owner: dict[LNode, str],
        reservations: dict[str, list[LNode]],
        params: SearchParams,
        guide_margin: int = 0,
    ) -> None:
        self.lattice = lattice
        self.params = params
        self.margin = guide_margin
        self.owner = owner
        self.reservations = reservations
        # Authoritative session occupancy; the indexed kernel keeps
        # its own dense mirror.
        self.occupancy: dict[LNode, str] = {}
        self.history: dict[LNode, float] = {}

    def guide_region(self, net_guides, terminal_access):
        per_layer, bounds = guide_spans(
            self.lattice, self.margin, net_guides, terminal_access
        )
        guide_nodes: set[LNode] = set()
        for layer, spans in per_layer.items():
            for ix0, iy0, ix1, iy1 in spans:
                for ix in range(ix0, ix1 + 1):
                    for iy in range(iy0, iy1 + 1):
                        guide_nodes.add((layer, ix, iy))
        # Terminals and their escape landings are always fair game.
        for nodes in terminal_access:
            for layer, ix, iy in nodes:
                guide_nodes.add((layer, ix, iy))
                if layer + 1 < self.lattice.tech.num_layers:
                    guide_nodes.add((layer + 1, ix, iy))
        return guide_nodes, bounds

    def connect(self, sources, targets, net_name, bounds, guide, rungs=LADDER):
        """The ladder of ``DrouteIndex.connect``: the L tries and the hard
        search on ``guide``, then the soft search off it."""
        found = None
        if rungs & FAST:
            found = fast_pattern_reference(self, net_name, sources, targets, guide)
        if found is None and rungs & HARD:
            found = self._search(sources, targets, net_name, bounds, guide, False)
        if found is None and rungs & SOFT:
            found = self._search(sources, targets, net_name, bounds, None, True)
        return found

    def _search(self, sources, targets, net_name, bounds, guide, soft):
        closed, marked = pocket_look(
            self.lattice, sources, targets, net_name, self.owner,
            self.occupancy, bounds, guide,
        )
        toll = 0.0
        if closed and soft:
            toll = float(self.params.conflict_penalty)
            get_metrics().count("droute.soft_tolled")
        result = astar_connect(
            self.lattice,
            sources,
            targets,
            net_name,
            self.owner,
            self.occupancy,
            bounds,
            guide,
            self.params,
            soft=soft,
            toll=toll,
            marked=marked,
            history=self.history,
        )
        # The search production skips: run here, to hold the look to it.
        assert not closed or soft or result is None
        return result

    def commit(self, net_name, used, terminal_access):
        pins = {node for nodes in terminal_access for node in nodes}
        patched = min_area_patch(self.lattice, self.patch_free, net_name, used, pins)
        for node in used:
            self.occupancy.setdefault(node, net_name)
        return patched

    def run_clear(self, nodes, net_name: str, guide) -> bool:
        for node in nodes:
            holder = self.owner.get(node)
            if holder is not None and holder != net_name:
                return False
            holder = self.occupancy.get(node)
            if holder is not None and holder != net_name:
                return False
            if node not in guide:
                return False
        return True

    def polyline_clear(self, corners, net_name: str, guide) -> bool:
        """``run_clear`` over every node of the polyline after the first."""
        nodes = []
        here = corners[0]
        for corner in corners[1:]:
            axis = next((i for i in range(3) if corner[i] != here[i]), None)
            if axis is None:
                continue
            step = 1 if corner[axis] > here[axis] else -1
            for value in range(here[axis] + step, corner[axis] + step, step):
                node = list(here)
                node[axis] = value
                nodes.append(tuple(node))
            here = corner
        return self.run_clear(nodes, net_name, guide)

    def patch_free(self, node: LNode, net_name: str) -> bool:
        holder = self.owner.get(node) or self.occupancy.get(node)
        return holder is None or holder == net_name

    def holder_name(self, node: LNode) -> str | None:
        return self.owner.get(node) or self.occupancy.get(node)

    def release_reservations(self, net_name: str, used: set[LNode]) -> None:
        owner = self.owner
        for node in self.reservations.pop(net_name, ()):
            if node not in used and owner.get(node) == net_name:
                del owner[node]

    def rip(self, net_name: str, nodes) -> None:
        occupancy = self.occupancy
        for node in nodes:
            if occupancy.get(node) == net_name:
                del occupancy[node]

    def add_history(self, nodes, amount: float) -> None:
        history = self.history
        for node in nodes:
            history[node] = history.get(node, 0.0) + amount


def pocket_look(
    lattice: TrackLattice,
    sources: set[LNode],
    targets: set[LNode],
    net: str,
    owner: dict[LNode, str],
    occupancy: dict[LNode, str],
    bounds: tuple[int, int, int, int],
    guide_nodes: set[LNode] | None,
) -> tuple[bool, set[LNode]]:
    """Is every penalty-free way into ``targets`` sealed?  ``(closed, marked)``.

    Floods backwards from the targets over nodes that are free or
    ``net``'s own (and in the guide, if there is one).  ``marked`` is
    every node the flood entered or looked at; it means something only
    when ``closed``.  Predecessors are stated from the stepping node's
    side, the way ``astar_connect`` generates its candidates.
    """
    if sources & targets:
        return False, set()
    ix0, iy0, ix1, iy1 = bounds
    min_wire = lattice.min_wire_layer
    num_layers = lattice.tech.num_layers

    def steps_onto(node: LNode):
        layer, ix, iy = node
        if layer >= min_wire:
            if 0 <= ix - 1 < ix1:  # its +x step
                yield (layer, ix - 1, iy)
            if ix0 < ix + 1 < lattice.nx:  # its -x step
                yield (layer, ix + 1, iy)
            if 0 <= iy - 1 < iy1:
                yield (layer, ix, iy - 1)
            if iy0 < iy + 1 < lattice.ny:
                yield (layer, ix, iy + 1)
        if layer > 0:
            yield (layer - 1, ix, iy)
        if layer + 1 < num_layers:
            yield (layer + 1, ix, iy)

    def in_guide(node: LNode) -> bool:
        return guide_nodes is None or node in guide_nodes

    marked = set(targets)
    flood = deque(t for t in targets if in_guide(t))
    entered = len(flood)
    while flood:
        for pred in steps_onto(flood.popleft()):
            if pred in sources:
                return False, marked
            if pred in marked:
                continue
            marked.add(pred)
            if (
                in_guide(pred)
                and owner.get(pred, net) == net
                and occupancy.get(pred, net) == net
            ):
                flood.append(pred)
                entered += 1
    return entered <= _indexed.POCKET_BUDGET, marked


def astar_connect(
    lattice: TrackLattice,
    sources: set[LNode],
    targets: set[LNode],
    net: str,
    owner: dict[LNode, str],
    occupancy: dict[LNode, str],
    bounds: tuple[int, int, int, int],
    guide_nodes: set[LNode] | None,
    params: SearchParams,
    soft: bool,
    toll: float = 0.0,
    marked: set[LNode] = frozenset(),
    history: dict[LNode, float] | None = None,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets``.

    ``owner`` is the static pin/blockage ownership, ``occupancy`` the
    routed-wire ownership; nodes owned by other nets are impassable in
    hard mode and penalized in soft mode.  ``bounds`` is the inclusive
    ``(ix0, iy0, ix1, iy1)`` search window; ``guide_nodes`` (if given)
    is the set of nodes inside the net's guides, and no path leaves it.
    ``toll`` is a penalty every path still owes until it touches a node
    of ``marked``; the estimate adds it there, and is then not inflated.
    ``history`` (node -> cost, never negative) is added to every step
    onto the node, after the conflict penalty.
    """
    if not sources or not targets:
        return None
    overlap = sources & targets
    if overlap:
        node = next(iter(overlap))
        return SearchResult(path=[node], cost=0.0, conflicts=[])

    pitch = lattice.pitch
    via_cost = float(params.via_cost)
    jog_cost = params.jog_factor * pitch
    conflict_penalty = float(params.conflict_penalty)
    horiz = tuple(layer.is_horizontal for layer in lattice.tech.layers)
    num_layers = len(horiz)
    min_wire = lattice.min_wire_layer
    ix0, iy0, ix1, iy1 = bounds

    t_ix0 = min(t[1] for t in targets)
    t_ix1 = max(t[1] for t in targets)
    t_iy0 = min(t[2] for t in targets)
    t_iy1 = max(t[2] for t in targets)
    t_l0 = min(t[0] for t in targets)
    t_l1 = max(t[0] for t in targets)

    owner_get = owner.get
    occupancy_get = occupancy.get
    history_get = (history or {}).get
    heappush = heapq.heappush
    heappop = heapq.heappop

    h_weight = 1.0 if toll else params.heuristic_weight

    def heuristic(layer: int, ix: int, iy: int) -> float:
        dx = (t_ix0 - ix) if ix < t_ix0 else (ix - t_ix1 if ix > t_ix1 else 0)
        dy = (t_iy0 - iy) if iy < t_iy0 else (iy - t_iy1 if iy > t_iy1 else 0)
        dl = (t_l0 - layer) if layer < t_l0 else (
            layer - t_l1 if layer > t_l1 else 0
        )
        h = h_weight * (pitch * (dx + dy) + via_cost * dl)
        if toll and (layer, ix, iy) not in marked:
            h += toll
        return h

    tie = 0
    # This IS the dict oracle the indexed kernel is parity-tested
    # against; it must stay sparse.
    g_score: dict[LNode, float] = {}
    came_from: dict[LNode, LNode] = {}
    heap: list[tuple[float, int, float, LNode]] = []
    # Seed order is the caller's set iteration order -- deterministic
    # cross-machine (int-tuple hashing ignores PYTHONHASHSEED) and
    # shared byte-for-byte with the indexed kernel; sorting here would
    # change tie order and break parity with the committed digests.
    for s in sources:
        g_score[s] = 0.0
        heap.append((heuristic(*s), tie, 0.0, s))
        tie += 1
    heapq.heapify(heap)
    expansions = 0
    max_expansions = params.max_expansions
    if soft:
        max_expansions = int(max_expansions * params.soft_budget_factor)

    # Expansion counts are tallied locally and recorded once in the
    # ``finally`` — the hot loop itself carries no instrumentation.
    try:
        while heap and expansions < max_expansions:
            _, _, g, node = heappop(heap)
            if g > g_score.get(node, float("inf")):
                continue
            expansions += 1
            if node in targets:
                return _build_result(node, came_from, g, net, owner, occupancy)
            layer, ix, iy = node

            candidates: list[tuple[LNode, float]] = []
            if layer >= min_wire:
                if horiz[layer]:
                    if ix < ix1:
                        candidates.append(((layer, ix + 1, iy), pitch))
                    if ix > ix0:
                        candidates.append(((layer, ix - 1, iy), pitch))
                    if iy < iy1:
                        candidates.append(((layer, ix, iy + 1), jog_cost))
                    if iy > iy0:
                        candidates.append(((layer, ix, iy - 1), jog_cost))
                else:
                    if iy < iy1:
                        candidates.append(((layer, ix, iy + 1), pitch))
                    if iy > iy0:
                        candidates.append(((layer, ix, iy - 1), pitch))
                    if ix < ix1:
                        candidates.append(((layer, ix + 1, iy), jog_cost))
                    if ix > ix0:
                        candidates.append(((layer, ix - 1, iy), jog_cost))
            if layer + 1 < num_layers:
                candidates.append(((layer + 1, ix, iy), via_cost))
            if layer > 0:
                candidates.append(((layer - 1, ix, iy), via_cost))

            for neighbour, step in candidates:
                if guide_nodes is not None and neighbour not in guide_nodes:
                    continue
                holder = owner_get(neighbour)
                if holder is not None and holder != net:
                    if holder is BLOCKED or holder == BLOCKED:
                        if neighbour not in targets:
                            continue
                    elif not soft and neighbour not in targets:
                        continue
                    else:
                        step += conflict_penalty
                else:
                    occ = occupancy_get(neighbour)
                    if occ is not None and occ != net:
                        if not soft and neighbour not in targets:
                            continue
                        step += conflict_penalty
                step += history_get(neighbour, 0.0)
                tentative = g + step
                if tentative < g_score.get(neighbour, float("inf")) - 1e-9:
                    g_score[neighbour] = tentative
                    came_from[neighbour] = node
                    heappush(
                        heap,
                        (tentative + heuristic(*neighbour), tie, tentative, neighbour),
                    )
                    tie += 1
        return None
    finally:
        metrics = get_metrics()
        metrics.count("droute.astar_calls")
        metrics.observe("droute.astar_expansions", expansions)


def _build_result(
    node: LNode,
    came_from: dict[LNode, LNode],
    cost: float,
    net: str,
    owner: dict[LNode, str],
    occupancy: dict[LNode, str],
) -> SearchResult:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    conflicts = []
    for p in path:
        holder = owner.get(p) or occupancy.get(p)
        if holder is not None and holder != net and holder != BLOCKED:
            conflicts.append(p)
    return SearchResult(path=path, cost=cost, conflicts=conflicts)


# ---------------------------------------------------------------- min-area


def min_area_islands(
    lattice: TrackLattice,
    net_nodes: dict[str, set[LNode]],
    pin_nodes: dict[str, set[LNode]],
) -> set[tuple[str, int, frozenset[tuple[int, int]]]]:
    """``(net, layer, component)`` of every planar component of a net's
    nodes on a min-area layer that holds no pin node and whose area
    (its nodes as one wire of the layer's width) is under the rule."""
    islands = set()
    pitch = lattice.pitch
    for net, nodes in net_nodes.items():
        per_layer: dict[int, set[tuple[int, int]]] = defaultdict(set)
        for layer, ix, iy in nodes:
            per_layer[layer].add((ix, iy))
        exempt = pin_nodes.get(net, set())
        for layer, points in per_layer.items():
            tech_layer = lattice.tech.layers[layer]
            if tech_layer.min_area <= 0:
                continue
            remaining = set(points)
            while remaining:
                seed = remaining.pop()
                component = {seed}
                stack = [seed]
                while stack:
                    ix, iy = stack.pop()
                    for nxt in (
                        (ix + 1, iy),
                        (ix - 1, iy),
                        (ix, iy + 1),
                        (ix, iy - 1),
                    ):
                        if nxt in remaining:
                            remaining.remove(nxt)
                            component.add(nxt)
                            stack.append(nxt)
                if any((layer, ix, iy) in exempt for ix, iy in component):
                    continue
                length = (len(component) - 1) * pitch
                area = (length + tech_layer.width) * tech_layer.width
                if area < tech_layer.min_area:
                    islands.add((net, layer, frozenset(component)))
    return islands


def check_min_area(
    lattice: TrackLattice,
    net_nodes: dict[str, set[LNode]],
    pin_nodes: dict[str, set[LNode]],
) -> list[DrcViolation]:
    """One min-area violation per island, at its smallest node."""
    return [
        DrcViolation(
            kind=DrcKind.MIN_AREA, layer=layer, net_a=net,
            node=(layer, *min(component)),
        )
        for net, layer, component in sorted(
            min_area_islands(lattice, net_nodes, pin_nodes),
            key=lambda island: (island[0], island[1], min(island[2])),
        )
    ]
