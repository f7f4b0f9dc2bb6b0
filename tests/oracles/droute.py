"""Dict-of-tuples reference for the detailed-routing kernel.

``astar_connect`` / ``_build_result`` (from ``src/repro/droute/astar.py``)
and ``_DictState`` (from ``src/repro/droute/router.py``) are the
pre-indexed implementations, moved here unchanged but for their lint
suppressions.  The flat-array :class:`repro.droute.indexed.DrouteIndex`
must produce byte-identical paths, costs and conflict lists.

Added since: :func:`pocket_look`, the backward look of
``repro.droute.indexed.pocket_closed`` over tuples and sets, and the
*toll* it proves for a soft search -- ``astar_connect`` takes it in the
textbook form, ``h(n) + toll`` for every node outside the look's marked
set, at weight 1.0.  A hard search the look calls closed is still run
here, and must come back ``None``.

:class:`OracleDetailedRouter` installs the reference through the one
seam the router has: :meth:`DetailedRouter.begin_session` builds the
session state, and everything else talks to it through the eight state
methods (``guide_region, connect, run_clear, patch_free, holder_name,
commit_used, release_reservations, rip``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.droute.astar import SearchParams, SearchResult, SearchStats
from repro.droute import indexed as _indexed
from repro.droute.indexed import guide_spans as _guide_spans
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.droute.router import DetailedRouter
from repro.guard.deadline import DeadlineTicker
from repro.obs import get_metrics


class OracleDetailedRouter(DetailedRouter):
    """A :class:`DetailedRouter` whose sessions run on :class:`_DictState`."""

    def begin_session(self, guides):
        super().begin_session(guides)
        owner, reservations = build_obstacle_map(self.design, self.lattice)
        self._state = _DictState(
            self.lattice, owner, reservations, self.params, self.guide_margin
        )
        return self._state


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

    def guide_region(self, net_guides, terminal_access):
        per_layer, bounds = _guide_spans(
            self.lattice, self.margin, net_guides, terminal_access
        )
        if per_layer is None:
            return None, bounds
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

    def connect(self, sources, targets, net_name, bounds, guide, soft, stats):
        closed, marked = pocket_look(
            self.lattice, sources, targets, net_name, self.owner,
            self.occupancy, bounds, guide,
        )
        toll = 0.0
        if closed and soft:
            toll = float(self.params.conflict_penalty)
            if guide is not None:
                toll = min(toll, float(self.params.off_guide_penalty))
            if stats is not None:
                stats.tolled += 1
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
            stats=stats,
            toll=toll,
            marked=marked,
        )
        # The search production skips: run here, to hold the look to it.
        assert not closed or soft or result is None
        return result

    def run_clear(self, nodes, net_name: str, guide) -> bool:
        for node in nodes:
            holder = self.owner.get(node)
            if holder is not None and holder != net_name:
                return False
            holder = self.occupancy.get(node)
            if holder is not None and holder != net_name:
                return False
            if guide is not None and node not in guide:
                return False
        return True

    def patch_free(self, node: LNode, net_name: str) -> bool:
        holder = self.owner.get(node) or self.occupancy.get(node)
        return holder is None or holder == net_name

    def holder_name(self, node: LNode) -> str | None:
        return self.owner.get(node) or self.occupancy.get(node)

    def commit_used(self, net_name: str, used_sorted) -> None:
        occupancy = self.occupancy
        for node in used_sorted:
            occupancy.setdefault(node, net_name)

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
    stats: SearchStats | None = None,
    toll: float = 0.0,
    marked: set[LNode] = frozenset(),
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets``.

    ``owner`` is the static pin/blockage ownership, ``occupancy`` the
    routed-wire ownership; nodes owned by other nets are impassable in
    hard mode and penalized in soft mode.  ``bounds`` is the inclusive
    ``(ix0, iy0, ix1, iy1)`` search window; ``guide_nodes`` (if given)
    is the set of nodes inside the net's guides.  ``toll`` is a penalty
    every path still owes until it touches a node of ``marked``; the
    estimate adds it there, and is then not inflated.
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
    off_guide_penalty = float(params.off_guide_penalty)
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
    ticker = DeadlineTicker("droute.astar", stride=64)

    # Expansion counts are tallied locally and recorded once in the
    # ``finally`` — the hot loop itself carries no instrumentation.
    try:
        while heap and expansions < max_expansions:
            _, _, g, node = heappop(heap)
            if g > g_score.get(node, float("inf")):
                continue
            expansions += 1
            ticker.tick()
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
                if guide_nodes is not None and neighbour not in guide_nodes:
                    if not soft:
                        continue
                    step += off_guide_penalty
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
        if stats is not None:
            stats.record(expansions)
        else:
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
