"""Flat-array indexed A* kernel for detailed routing.

Addressing scheme: every lattice node ``(layer, ix, iy)`` maps to a flat
node id ``nid = (layer * ny + iy) * nx + ix``; net names are interned to
small ints (``FREE = 0``, ``BLOCKED_ID = 1``, nets from 2).  All per-node
state — ownership, wire occupancy, ``g_score``/``came_from``, target and
guide membership — lives in dense arrays indexed by nid instead of
dict-of-tuple maps, which removes the tuple hashing and boxing that
dominates the dict-based reference (``tests/oracles/droute.py``).

Per-search state costs O(expanded), not O(lattice): ``g_score`` defaults
to ``inf`` and every slot written during a search is recorded in a local
``touched`` list and restored to ``inf`` in the search's ``finally``, so
a relax attempt reads exactly one array slot to learn the incumbent
cost.  Target membership is epoch-stamped (bump a counter, compare
stamps), and guide membership uses a per-net ``guide_stamp`` filled by
row-contiguous slice assignment, so building a net's guide region costs
O(guide-area) slice stores instead of O(guide-area) tuple insertions.

The owner array is scattered once from the dict built by
:func:`repro.droute.obstacles.build_obstacle_map` through a transient
``numpy`` int32 buffer; the *runtime* arrays are plain Python lists
because scalar ``list.__getitem__`` is markedly faster than
``ndarray.__getitem__`` (which boxes a fresh ``np.int32``/``np.float64``
per access) and float64 boxing would also poison the priority-queue
float comparisons with mixed-type elements.

Parity contract: :func:`astar_connect_indexed` is expansion-order-
identical to the oracle — same seed order (it iterates the caller's own
source/target sets), same FIFO tie-breaking within equal f values as the
oracle's tie counter, same float expressions for the heuristic and step
costs, same hard/soft conflict semantics — so paths, costs and conflict
lists are byte-identical.  The oracle (the dict ``astar_connect`` and
its ``_DictState``) lives in ``tests/oracles/droute.py``; the parity
suite installs it through :meth:`DetailedRouter.begin_session`.

:class:`DrouteIndex` is also the router's *session state*: the nine
methods under "session state" are everything
:class:`~repro.droute.router.DetailedRouter` asks of it, and the only
seam a test needs to substitute the reference.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque

from repro.droute.astar import SearchParams, SearchResult, SearchStats
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.guard.deadline import check_deadline
from repro.lefdef.guides import GuideRect
from repro.obs import get_metrics

#: owner/occupancy ids; net ids are interned starting at 2
FREE = 0
BLOCKED_ID = 1

_INF = float("inf")

#: nodes :func:`pocket_closed` may visit before it gives up and lets the
#: forward search run; sized from the measured curve in DESIGN.md
#: ("Searches that are not run")
POCKET_BUDGET = 256


def guide_spans(
    lattice: TrackLattice,
    margin: int,
    net_guides: list[GuideRect] | None,
    terminal_access: list[list[LNode]],
):
    """Per-layer guide spans + search bounds for one net (pure math).

    Shared with the reference state in ``tests/oracles`` so both search
    the same bounds; only the membership *representation* (stamped array
    rows vs tuple set) differs.
    """
    all_nodes = [n for nodes in terminal_access for n in nodes]
    ix_vals = [n[1] for n in all_nodes]
    iy_vals = [n[2] for n in all_nodes]

    if net_guides is None:
        slack = 12
        bounds = (
            max(0, min(ix_vals) - slack),
            max(0, min(iy_vals) - slack),
            min(lattice.nx - 1, max(ix_vals) + slack),
            min(lattice.ny - 1, max(iy_vals) + slack),
        )
        return None, bounds

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


class DrouteIndex:
    """Dense per-node routing state addressed by flat node ids.

    Net-id assignment follows interning order and never leaves the
    session: results carry node tuples and net *names*, so the order in
    which nets are first seen does not affect them.
    """

    __slots__ = (
        "lattice", "nx", "ny", "num_layers", "num_nodes",
        "names", "ids", "owner", "occupancy",
        "g_score", "came_from", "target_epoch", "guide_epoch",
        "gate", "epoch", "guide_stamp", "gate_stamp",
        "reservations", "params", "margin",
    )

    def __init__(
        self,
        lattice: TrackLattice,
        owner_map: dict[LNode, str],
        reservations: dict[str, list[LNode]] | None = None,
        params: SearchParams | None = None,
        guide_margin: int = 0,
    ) -> None:
        self.lattice = lattice
        #: per-net escape-via landings still held for that net; keyed
        #: by name with tuple nodes (rare, never on the hot path)
        self.reservations = reservations if reservations is not None else {}
        self.params = params or SearchParams()
        #: tracks a guide rect grows by on every side
        self.margin = guide_margin
        self.nx = nx = lattice.nx
        self.ny = ny = lattice.ny
        self.num_layers = num_layers = lattice.tech.num_layers
        self.num_nodes = n = num_layers * ny * nx
        self.names: list[str | None] = [None, BLOCKED]
        self.ids: dict[str, int] = {BLOCKED: BLOCKED_ID}

        import numpy as np

        owner = np.zeros(n, dtype=np.int32)
        for (layer, ix, iy), name in owner_map.items():
            owner[(layer * ny + iy) * nx + ix] = self.intern(name)
        self.owner: list[int] = owner.tolist()
        self.occupancy: list[int] = [0] * n
        #: inf everywhere between searches; each search restores what it
        #: wrote (its ``touched`` list) on the way out
        self.g_score: list[float] = [_INF] * n
        self.came_from: list[int] = [-1] * n
        self.target_epoch: list[int] = [0] * n
        self.guide_epoch: list[int] = [0] * n
        #: lazy per-search passability cache for the hard guided loop:
        #: ``gate_stamp + {0: base cost, 1: conflict penalty, 2: wall}``,
        #: anything older than the live stamp means "not classified yet"
        #: (:func:`pocket_closed` borrows it under a stamp block of its
        #: own: ``gate_stamp + {0: visited, 1: source}``)
        self.gate: list[int] = [0] * n
        self.epoch = 0
        self.guide_stamp = 0
        self.gate_stamp = 0

    # ------------------------------------------------------------- interning

    def intern(self, name: str) -> int:
        """Net name -> small int id (stable for the index's lifetime)."""
        nid = self.ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.ids[name] = nid
            self.names.append(name)
        return nid

    def name_of(self, hid: int) -> str | None:
        return self.names[hid]

    # ------------------------------------------------------------ addressing

    def nid_of(self, node: LNode) -> int:
        layer, ix, iy = node
        return (layer * self.ny + iy) * self.nx + ix

    def node_of(self, nid: int) -> LNode:
        ix = nid % self.nx
        rest = nid // self.nx
        return (rest // self.ny, ix, rest % self.ny)

    # ---------------------------------------------------------------- guides

    def stamp_guides(
        self,
        per_layer: dict[int, list[tuple[int, int, int, int]]],
        terminal_access: list[list[LNode]],
    ) -> int:
        """Stamp one net's guide membership; returns the stamp handle.

        Rows are contiguous in ``ix``, so each span row is one slice
        assignment.  Terminals and their escape landings (one layer up)
        are always stamped, mirroring the oracle's guide-set build.
        """
        self.guide_stamp += 1
        stamp = self.guide_stamp
        ge = self.guide_epoch
        nx, ny = self.nx, self.ny
        num_layers = self.num_layers
        for layer, spans in per_layer.items():
            base = layer * ny
            for ix0, iy0, ix1, iy1 in spans:
                width = ix1 - ix0 + 1
                fill = [stamp] * width
                for iy in range(iy0, iy1 + 1):
                    row = (base + iy) * nx + ix0
                    ge[row:row + width] = fill
        for nodes in terminal_access:
            for layer, ix, iy in nodes:
                ge[(layer * ny + iy) * nx + ix] = stamp
                if layer + 1 < num_layers:
                    ge[((layer + 1) * ny + iy) * nx + ix] = stamp
        return stamp

    # --------------------------------------------------------- session state

    def guide_region(self, net_guides, terminal_access):
        """(guide stamp or ``None``, search bounds) of one net."""
        per_layer, bounds = guide_spans(
            self.lattice, self.margin, net_guides, terminal_access
        )
        if per_layer is None:
            return None, bounds
        return self.stamp_guides(per_layer, terminal_access), bounds

    def connect(self, sources, targets, net_name, bounds, guide, soft, stats):
        net_id = self.intern(net_name)
        # A hard in-guide search whose targets sit in a sealed pocket can
        # only come back ``None``; say so without running it.
        if guide is not None and not soft and pocket_closed(
            self, sources, targets, net_id, bounds, guide
        ):
            if stats is not None:
                stats.skipped += 1
            else:
                get_metrics().count("droute.hard_skipped")
            return None
        return astar_connect_indexed(
            self,
            sources,
            targets,
            net_name,
            net_id,
            bounds,
            guide,
            self.params,
            soft=soft,
            stats=stats,
        )

    def in_guide(self, guide, node: LNode) -> bool:
        return guide is None or self.guide_epoch[self.nid_of(node)] == guide

    def free_for(self, node: LNode, net_name: str) -> bool:
        nid = self.nid_of(node)
        net_id = self.intern(net_name)
        holder = self.owner[nid]
        if holder != 0 and holder != net_id:
            return False
        holder = self.occupancy[nid]
        if holder != 0 and holder != net_id:
            return False
        return True

    def patch_free(self, node: LNode, net_name: str) -> bool:
        nid = self.nid_of(node)
        holder = self.owner[nid] or self.occupancy[nid]
        return holder == 0 or holder == self.intern(net_name)

    def holder_name(self, node: LNode) -> str | None:
        nid = self.nid_of(node)
        return self.name_of(self.owner[nid] or self.occupancy[nid])

    def commit_used(self, net_name: str, used_sorted) -> None:
        net_id = self.intern(net_name)
        occupancy = self.occupancy
        nx, ny = self.nx, self.ny
        for layer, ix, iy in used_sorted:
            nid = (layer * ny + iy) * nx + ix
            if occupancy[nid] == 0:
                occupancy[nid] = net_id

    def release_reservations(self, net_name: str, used: set[LNode]) -> None:
        net_id = self.intern(net_name)
        owner = self.owner
        for node in self.reservations.pop(net_name, ()):
            if node not in used:
                nid = self.nid_of(node)
                if owner[nid] == net_id:
                    owner[nid] = 0

    def rip(self, net_name: str, nodes) -> None:
        net_id = self.intern(net_name)
        occupancy = self.occupancy
        for node in nodes:
            nid = self.nid_of(node)
            if occupancy[nid] == net_id:
                occupancy[nid] = 0


def pocket_closed(
    index: DrouteIndex,
    sources: set[LNode],
    targets: set[LNode],
    net_id: int,
    bounds: tuple[int, int, int, int],
    guide_stamp: int,
) -> bool:
    """True when a hard in-guide search from ``sources`` cannot reach ``targets``.

    A bounded flood *backwards* from the targets over exactly the steps
    the hard guided loop of :func:`astar_connect_indexed` may take: a
    node can be entered when it carries this search's guide stamp and is
    a target or free-or-own in both ``owner`` and ``occupancy``; planar
    steps exist only on layers >= ``min_wire_layer`` and test the
    *stepping* node's coordinate against the far bound (so the node
    stepped onto is tested against the near one); vias are unbounded.
    Every predecessor is tested for source membership before anything
    else -- sources are seeds, never entered, so they need be neither
    passable nor inside ``bounds``.

    If the flood closes without meeting a source, no forward search can
    pop a target, whether it would have ended by exhaustion or by
    ``max_expansions``: the answer is ``None``.  If it meets a source or
    visits more than :data:`POCKET_BUDGET` nodes the answer is "unknown"
    (``False``) and the caller runs the search.
    """
    nx = index.nx
    ny = index.ny
    layer_stride = nx * ny
    last_ix = nx - 1
    last_iy = ny - 1
    top = index.num_layers - 1
    min_wire = index.lattice.min_wire_layer
    budget = POCKET_BUDGET
    ix0, iy0, ix1, iy1 = bounds
    owner = index.owner
    occupancy = index.occupancy
    guide_epoch = index.guide_epoch
    # Marks go in ``gate`` under a fresh stamp block; the forward search
    # that may follow takes the next one, so it reads every mark left
    # here as "not classified yet".
    look = index.gate
    seen = index.gate_stamp + 4
    index.gate_stamp = seen
    is_source = seen + 1

    for layer, ix, iy in sources:
        look[(layer * ny + iy) * nx + ix] = is_source
    queue: list[int] = []
    push = queue.append
    for layer, ix, iy in targets:
        nid = (layer * ny + iy) * nx + ix
        if look[nid] == is_source:
            return False  # overlap: the search answers at once
        if guide_epoch[nid] == guide_stamp:  # an off-guide target is a wall
            look[nid] = seen
            push(nid)

    for nid in queue:  # grows while iterated: a FIFO without pops
        if len(queue) > budget:
            return False
        ix = nid % nx
        rest = nid // nx
        iy = rest % ny
        layer = rest // ny
        preds = []
        if layer >= min_wire:
            if 0 < ix <= ix1:
                preds.append(nid - 1)
            if ix0 <= ix < last_ix:
                preds.append(nid + 1)
            if 0 < iy <= iy1:
                preds.append(nid - nx)
            if iy0 <= iy < last_iy:
                preds.append(nid + nx)
        if layer > 0:
            preds.append(nid - layer_stride)
        if layer < top:
            preds.append(nid + layer_stride)
        for pid in preds:
            mark = look[pid]
            if mark >= seen:
                if mark == is_source:
                    return False
                continue
            look[pid] = seen
            if guide_epoch[pid] == guide_stamp:
                holder = owner[pid]
                if holder == 0 or holder == net_id:
                    holder = occupancy[pid]
                    if holder == 0 or holder == net_id:
                        push(pid)
    return True


def astar_connect_indexed(
    index: DrouteIndex,
    sources: set[LNode],
    targets: set[LNode],
    net: str,
    net_id: int,
    bounds: tuple[int, int, int, int],
    guide_stamp: int | None,
    params: SearchParams,
    soft: bool,
    stats: SearchStats | None = None,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets`` (flat-array A*).

    The open set is a *bucket queue*: a dict of per-f FIFO deques of
    ``(g, nid)`` pairs plus a small binary heap over the distinct f
    values that currently own a live bucket.  Popping the front of the
    minimum-f bucket yields entries in (f, insertion order) — exactly
    the (f, tie) order of the oracle's flat heap, entry for entry —
    while the measured ~6.7 pushes per distinct f mean most pushes are
    one dict probe plus a deque append instead of an O(log n) tuple
    sift.  Sources/targets are iterated from the caller's own sets so
    seeding order is shared with the oracle byte-for-byte.

    Three inner loops share one pop header; the two combinations the
    router actually issues — *hard inside guides* (every first attempt)
    and *soft with no guide* (the open-avoidance fallback) — are fully
    unrolled straight-line with the ``soft``/``has_guide`` flags folded
    out, and a compact descriptor-driven loop covers anything else.
    The heuristic comes from per-axis lookup tables (``pdx``/``pdy``/
    ``vdl``): the track pitch is an integral dbu count, so the tabulated
    per-axis terms recompose into the oracle's
    ``pitch * (dx + dy) + via_cost * dl`` bit-for-bit.  Every relax is
    ordered cheapest-test-first:

    1. a *dominance filter* — the penalty-free ``g + step`` (hoisted
       once per expansion) must already beat the incumbent ``g_score``;
       penalties only grow the cost and float addition is monotone, so
       any relax it skips was doomed,
    2. the ``gate`` passability cache — guide membership, owner and
       occupancy collapse into one lazily-stamped per-node code (base /
       conflict-penalized / wall) computed at most once per search —
    and only then the heuristic for the push.  Penalized costs come from
    per-step precomputed sums (``step + conflict`` then ``+ off_guide``)
    that replicate the oracle's float addition order exactly, so
    accepted ``tentative`` values are bit-identical.
    """
    if not sources or not targets:
        return None
    overlap = sources & targets
    if overlap:
        node = next(iter(overlap))
        return SearchResult(path=[node], cost=0.0, conflicts=[])

    lattice = index.lattice
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

    nx = index.nx
    ny = index.ny
    layer_stride = nx * ny
    owner = index.owner
    occupancy = index.occupancy
    g_score = index.g_score
    came_from = index.came_from
    target_epoch = index.target_epoch
    guide_epoch = index.guide_epoch
    index.epoch += 1
    epoch = index.epoch

    heappush = heapq.heappush
    heappop = heapq.heappop
    h_weight = params.heuristic_weight
    has_guide = guide_stamp is not None

    # Conflict-penalized step costs, formed in the oracle's addition
    # order (base, ``+= conflict``), so every reachable ``g + step`` is
    # the oracle's float exactly.
    pitch_c = pitch + conflict_penalty
    jog_c = jog_cost + conflict_penalty
    via_c = via_cost + conflict_penalty

    # Per-axis heuristic tables.  ``pitch`` is an int (dbu), so
    # ``pdx[x] + pdy[y] == pitch * (dx + dy)`` exactly, and
    # ``(pdx[x] + pdy[y]) + vdl[l]`` reproduces the oracle's
    # ``pitch * (dx + dy) + via_cost * dl`` float bit-for-bit.
    pdx = [
        pitch * (t_ix0 - x) if x < t_ix0
        else (pitch * (x - t_ix1) if x > t_ix1 else 0)
        for x in range(nx)
    ]
    pdy = [
        pitch * (t_iy0 - y) if y < t_iy0
        else (pitch * (y - t_iy1) if y > t_iy1 else 0)
        for y in range(ny)
    ]
    vdl = [
        via_cost * (t_l0 - l) if l < t_l0
        else (via_cost * (l - t_l1) if l > t_l1 else 0.0)
        for l in range(num_layers)
    ]

    touched: list[int] = []
    touched_append = touched.append

    # Bucket queue: entries live in per-f FIFO deques; ``fheap`` is a
    # small heap over the *distinct* f values with a live bucket.  Pops
    # take the front of the minimum-f bucket, so the global pop order is
    # (f, insertion order) — exactly the oracle's (f, tie) heap order —
    # while pushes skip the O(log n) tuple sift almost 7 times out of 8.
    buckets: dict[float, deque] = {}
    bget = buckets.get
    fheap: list[float] = []
    # Seed order is the caller's set iteration order -- deterministic
    # cross-machine (int-tuple hashing ignores PYTHONHASHSEED) and
    # shared byte-for-byte with the reference A*; sorting here would
    # change tie order and move every committed digest.
    for s in sources:
        layer, six, siy = s
        nid = (layer * ny + siy) * nx + six
        g_score[nid] = 0.0
        came_from[nid] = -1
        touched_append(nid)
        f = h_weight * (pdx[six] + pdy[siy] + vdl[layer])
        b = bget(f)
        if b is None:
            buckets[f] = deque(((0.0, nid),))
            heapq.heappush(fheap, f)
        else:
            b.append((0.0, nid))
    for layer, tix, tiy in targets:
        target_epoch[(layer * ny + tiy) * nx + tix] = epoch

    expansions = 0
    max_expansions = params.max_expansions
    if soft:
        max_expansions = int(max_expansions * params.soft_budget_factor)

    try:
        if has_guide and not soft:
            # ---------------- hard search inside guides (first attempts)
            # Off-guide and foreign non-target nodes are impassable;
            # conflict penalties apply only on target nodes held by
            # another net.
            #
            # Passability is a pure function of (guide, owner,
            # occupancy, targets) — all static for the duration of one
            # search — so it is cached lazily in ``gate``: first touch
            # of a node classifies it (base / penalized / wall), every
            # revisit costs a single read + compare.
            gate = index.gate
            gstamp = index.gate_stamp + 4
            index.gate_stamp = gstamp
            gstamp1 = gstamp + 1
            gstamp2 = gstamp + 2
            while fheap and expansions < max_expansions:
                f0 = fheap[0]
                b = buckets[f0]
                entry = b.popleft()
                if not b:
                    del buckets[f0]
                    heappop(fheap)
                g = entry[0]
                nid = entry[1]
                # Every heap entry wrote its g at push time, so
                # g_score[nid] is live here; stale entries carry a
                # larger g.
                if g > g_score[nid]:
                    continue
                expansions += 1
                if not (expansions & 63):
                    check_deadline("droute.astar")
                if target_epoch[nid] == epoch:
                    return _build_result(index, nid, g, net_id)
                ix = nid % nx
                rest = nid // nx
                iy = rest % ny
                layer = rest // ny
                px0 = pdx[ix]
                py0 = pdy[iy]
                v0 = vdl[layer]
                t_wire = g + pitch
                t_jog = g + jog_cost
                t_via = g + via_cost

                if layer >= min_wire:
                    if horiz[layer]:
                        # +x / -x at wire cost, then +y / -y jogs
                        if ix < ix1:
                            nnid = nid + 1
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix + 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix + 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix > ix0:
                            nnid = nid - 1
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix - 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix - 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy < iy1:
                            nnid = nid + nx
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy + 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy + 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy > iy0:
                            nnid = nid - nx
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy - 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy - 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                    else:
                        # +y / -y at wire cost, then +x / -x jogs
                        if iy < iy1:
                            nnid = nid + nx
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy + 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy + 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy > iy0:
                            nnid = nid - nx
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy - 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy - 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix < ix1:
                            nnid = nid + 1
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix + 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix + 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix > ix0:
                            nnid = nid - 1
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    if guide_epoch[nnid] != guide_stamp:
                                        gv = gstamp2
                                    else:
                                        holder = owner[nnid]
                                        if holder == 0 or holder == net_id:
                                            occ = occupancy[nnid]
                                            if occ == 0 or occ == net_id:
                                                gv = gstamp
                                            elif target_epoch[nnid] == epoch:
                                                gv = gstamp1
                                            else:
                                                gv = gstamp2
                                        elif holder == 1:  # BLOCKED_ID
                                            if target_epoch[nnid] == epoch:
                                                gv = gstamp
                                            else:
                                                gv = gstamp2
                                        elif target_epoch[nnid] == epoch:
                                            gv = gstamp1
                                        else:
                                            gv = gstamp2
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix - 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix - 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))

                if layer + 1 < num_layers:
                    nnid = nid + layer_stride
                    gs = g_score[nnid]
                    tentative = t_via
                    if tentative < gs - 1e-9:
                        gv = gate[nnid]
                        if gv < gstamp:
                            if guide_epoch[nnid] != guide_stamp:
                                gv = gstamp2
                            else:
                                holder = owner[nnid]
                                if holder == 0 or holder == net_id:
                                    occ = occupancy[nnid]
                                    if occ == 0 or occ == net_id:
                                        gv = gstamp
                                    elif target_epoch[nnid] == epoch:
                                        gv = gstamp1
                                    else:
                                        gv = gstamp2
                                elif holder == 1:  # BLOCKED_ID
                                    if target_epoch[nnid] == epoch:
                                        gv = gstamp
                                    else:
                                        gv = gstamp2
                                elif target_epoch[nnid] == epoch:
                                    gv = gstamp1
                                else:
                                    gv = gstamp2
                            gate[nnid] = gv
                        if gv == gstamp:
                            if gs == _INF:
                                touched_append(nnid)
                            g_score[nnid] = tentative
                            came_from[nnid] = nid
                            f = tentative + h_weight * (
                                px0 + py0 + vdl[layer + 1])
                            b = bget(f)
                            if b is None:
                                buckets[f] = deque(((tentative, nnid),))
                                heappush(fheap, f)
                            else:
                                b.append((tentative, nnid))
                        elif gv == gstamp1:
                            tentative = g + via_c
                            if tentative < gs - 1e-9:
                                if gs == _INF:
                                    touched_append(nnid)
                                g_score[nnid] = tentative
                                came_from[nnid] = nid
                                f = tentative + h_weight * (
                                    px0 + py0 + vdl[layer + 1])
                                b = bget(f)
                                if b is None:
                                    buckets[f] = deque(((tentative, nnid),))
                                    heappush(fheap, f)
                                else:
                                    b.append((tentative, nnid))

                if layer > 0:
                    nnid = nid - layer_stride
                    gs = g_score[nnid]
                    tentative = t_via
                    if tentative < gs - 1e-9:
                        gv = gate[nnid]
                        if gv < gstamp:
                            if guide_epoch[nnid] != guide_stamp:
                                gv = gstamp2
                            else:
                                holder = owner[nnid]
                                if holder == 0 or holder == net_id:
                                    occ = occupancy[nnid]
                                    if occ == 0 or occ == net_id:
                                        gv = gstamp
                                    elif target_epoch[nnid] == epoch:
                                        gv = gstamp1
                                    else:
                                        gv = gstamp2
                                elif holder == 1:  # BLOCKED_ID
                                    if target_epoch[nnid] == epoch:
                                        gv = gstamp
                                    else:
                                        gv = gstamp2
                                elif target_epoch[nnid] == epoch:
                                    gv = gstamp1
                                else:
                                    gv = gstamp2
                            gate[nnid] = gv
                        if gv == gstamp:
                            if gs == _INF:
                                touched_append(nnid)
                            g_score[nnid] = tentative
                            came_from[nnid] = nid
                            f = tentative + h_weight * (
                                px0 + py0 + vdl[layer - 1])
                            b = bget(f)
                            if b is None:
                                buckets[f] = deque(((tentative, nnid),))
                                heappush(fheap, f)
                            else:
                                b.append((tentative, nnid))
                        elif gv == gstamp1:
                            tentative = g + via_c
                            if tentative < gs - 1e-9:
                                if gs == _INF:
                                    touched_append(nnid)
                                g_score[nnid] = tentative
                                came_from[nnid] = nid
                                f = tentative + h_weight * (
                                    px0 + py0 + vdl[layer - 1])
                                b = bget(f)
                                if b is None:
                                    buckets[f] = deque(((tentative, nnid),))
                                    heappush(fheap, f)
                                else:
                                    b.append((tentative, nnid))

        elif soft and not has_guide:
            # ----------------- soft fallback with no guide (open rescue)
            # Everything is passable except blocked non-targets; foreign
            # holders always cost the conflict penalty.  These searches
            # carry the 3x expansion budget and dominate failing nets.
            #
            # Same lazy passability cache as the guided loop: owner /
            # occupancy / target state is static per search, so each
            # node is classified once on first touch.
            gate = index.gate
            gstamp = index.gate_stamp + 4
            index.gate_stamp = gstamp
            gstamp1 = gstamp + 1
            gstamp2 = gstamp + 2
            while fheap and expansions < max_expansions:
                f0 = fheap[0]
                b = buckets[f0]
                entry = b.popleft()
                if not b:
                    del buckets[f0]
                    heappop(fheap)
                g = entry[0]
                nid = entry[1]
                if g > g_score[nid]:
                    continue
                expansions += 1
                if not (expansions & 63):
                    check_deadline("droute.astar")
                if target_epoch[nid] == epoch:
                    return _build_result(index, nid, g, net_id)
                ix = nid % nx
                rest = nid // nx
                iy = rest % ny
                layer = rest // ny
                px0 = pdx[ix]
                py0 = pdy[iy]
                v0 = vdl[layer]
                t_wire = g + pitch
                t_jog = g + jog_cost
                t_via = g + via_cost

                if layer >= min_wire:
                    if horiz[layer]:
                        if ix < ix1:
                            nnid = nid + 1
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix + 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix + 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix > ix0:
                            nnid = nid - 1
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix - 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix - 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy < iy1:
                            nnid = nid + nx
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy + 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy + 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy > iy0:
                            nnid = nid - nx
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy - 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy - 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                    else:
                        if iy < iy1:
                            nnid = nid + nx
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy + 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy + 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if iy > iy0:
                            nnid = nid - nx
                            gs = g_score[nnid]
                            tentative = t_wire
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        px0 + pdy[iy - 1] + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + pitch_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            px0 + pdy[iy - 1] + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix < ix1:
                            nnid = nid + 1
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix + 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix + 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))
                        if ix > ix0:
                            nnid = nid - 1
                            gs = g_score[nnid]
                            tentative = t_jog
                            if tentative < gs - 1e-9:
                                gv = gate[nnid]
                                if gv < gstamp:
                                    holder = owner[nnid]
                                    if holder == 0 or holder == net_id:
                                        occ = occupancy[nnid]
                                        if occ == 0 or occ == net_id:
                                            gv = gstamp
                                        else:
                                            gv = gstamp1
                                    elif holder == 1:  # BLOCKED_ID
                                        if target_epoch[nnid] == epoch:
                                            gv = gstamp
                                        else:
                                            gv = gstamp2
                                    else:
                                        gv = gstamp1
                                    gate[nnid] = gv
                                if gv == gstamp:
                                    if gs == _INF:
                                        touched_append(nnid)
                                    g_score[nnid] = tentative
                                    came_from[nnid] = nid
                                    f = tentative + h_weight * (
                                        pdx[ix - 1] + py0 + v0)
                                    b = bget(f)
                                    if b is None:
                                        buckets[f] = deque(((tentative, nnid),))
                                        heappush(fheap, f)
                                    else:
                                        b.append((tentative, nnid))
                                elif gv == gstamp1:
                                    tentative = g + jog_c
                                    if tentative < gs - 1e-9:
                                        if gs == _INF:
                                            touched_append(nnid)
                                        g_score[nnid] = tentative
                                        came_from[nnid] = nid
                                        f = tentative + h_weight * (
                                            pdx[ix - 1] + py0 + v0)
                                        b = bget(f)
                                        if b is None:
                                            buckets[f] = deque(((tentative, nnid),))
                                            heappush(fheap, f)
                                        else:
                                            b.append((tentative, nnid))

                if layer + 1 < num_layers:
                    nnid = nid + layer_stride
                    gs = g_score[nnid]
                    tentative = t_via
                    if tentative < gs - 1e-9:
                        gv = gate[nnid]
                        if gv < gstamp:
                            holder = owner[nnid]
                            if holder == 0 or holder == net_id:
                                occ = occupancy[nnid]
                                if occ == 0 or occ == net_id:
                                    gv = gstamp
                                else:
                                    gv = gstamp1
                            elif holder == 1:  # BLOCKED_ID
                                if target_epoch[nnid] == epoch:
                                    gv = gstamp
                                else:
                                    gv = gstamp2
                            else:
                                gv = gstamp1
                            gate[nnid] = gv
                        if gv == gstamp:
                            if gs == _INF:
                                touched_append(nnid)
                            g_score[nnid] = tentative
                            came_from[nnid] = nid
                            f = tentative + h_weight * (
                                px0 + py0 + vdl[layer + 1])
                            b = bget(f)
                            if b is None:
                                buckets[f] = deque(((tentative, nnid),))
                                heappush(fheap, f)
                            else:
                                b.append((tentative, nnid))
                        elif gv == gstamp1:
                            tentative = g + via_c
                            if tentative < gs - 1e-9:
                                if gs == _INF:
                                    touched_append(nnid)
                                g_score[nnid] = tentative
                                came_from[nnid] = nid
                                f = tentative + h_weight * (
                                    px0 + py0 + vdl[layer + 1])
                                b = bget(f)
                                if b is None:
                                    buckets[f] = deque(((tentative, nnid),))
                                    heappush(fheap, f)
                                else:
                                    b.append((tentative, nnid))

                if layer > 0:
                    nnid = nid - layer_stride
                    gs = g_score[nnid]
                    tentative = t_via
                    if tentative < gs - 1e-9:
                        gv = gate[nnid]
                        if gv < gstamp:
                            holder = owner[nnid]
                            if holder == 0 or holder == net_id:
                                occ = occupancy[nnid]
                                if occ == 0 or occ == net_id:
                                    gv = gstamp
                                else:
                                    gv = gstamp1
                            elif holder == 1:  # BLOCKED_ID
                                if target_epoch[nnid] == epoch:
                                    gv = gstamp
                                else:
                                    gv = gstamp2
                            else:
                                gv = gstamp1
                            gate[nnid] = gv
                        if gv == gstamp:
                            if gs == _INF:
                                touched_append(nnid)
                            g_score[nnid] = tentative
                            came_from[nnid] = nid
                            f = tentative + h_weight * (
                                px0 + py0 + vdl[layer - 1])
                            b = bget(f)
                            if b is None:
                                buckets[f] = deque(((tentative, nnid),))
                                heappush(fheap, f)
                            else:
                                b.append((tentative, nnid))
                        elif gv == gstamp1:
                            tentative = g + via_c
                            if tentative < gs - 1e-9:
                                if gs == _INF:
                                    touched_append(nnid)
                                g_score[nnid] = tentative
                                came_from[nnid] = nid
                                f = tentative + h_weight * (
                                    px0 + py0 + vdl[layer - 1])
                                b = bget(f)
                                if b is None:
                                    buckets[f] = deque(((tentative, nnid),))
                                    heappush(fheap, f)
                                else:
                                    b.append((tentative, nnid))

        else:
            # -------- generic loop: remaining flag combinations (rare)
            pen_pitch = (pitch, pitch + off_guide_penalty,
                         pitch_c, pitch_c + off_guide_penalty)
            pen_jog = (jog_cost, jog_cost + off_guide_penalty,
                       jog_c, jog_c + off_guide_penalty)
            pen_via = (via_cost, via_cost + off_guide_penalty,
                       via_c, via_c + off_guide_penalty)
            descs_h = ((1, 1, 0, pitch, pen_pitch),
                       (-1, -1, 0, pitch, pen_pitch),
                       (nx, 1, 1, jog_cost, pen_jog),
                       (-nx, -1, 1, jog_cost, pen_jog))
            descs_v = ((nx, 1, 1, pitch, pen_pitch),
                       (-nx, -1, 1, pitch, pen_pitch),
                       (1, 1, 0, jog_cost, pen_jog),
                       (-1, -1, 0, jog_cost, pen_jog))
            while fheap and expansions < max_expansions:
                f0 = fheap[0]
                b = buckets[f0]
                entry = b.popleft()
                if not b:
                    del buckets[f0]
                    heappop(fheap)
                g = entry[0]
                nid = entry[1]
                if g > g_score[nid]:
                    continue
                expansions += 1
                if not (expansions & 63):
                    check_deadline("droute.astar")
                if target_epoch[nid] == epoch:
                    return _build_result(index, nid, g, net_id)
                ix = nid % nx
                rest = nid // nx
                iy = rest % ny
                layer = rest // ny
                px0 = pdx[ix]
                py0 = pdy[iy]
                v0 = vdl[layer]
                pxy0 = px0 + py0
                t_via = g + via_cost

                if layer >= min_wire:
                    for dnid, cdelta, axis, step, pens in (
                        descs_h if horiz[layer] else descs_v
                    ):
                        if axis:
                            niy = iy + cdelta
                            if niy < iy0 or niy > iy1:
                                continue
                            nix = ix
                        else:
                            nix = ix + cdelta
                            if nix < ix0 or nix > ix1:
                                continue
                            niy = iy
                        nnid = nid + dnid
                        gs = g_score[nnid]
                        tentative = g + step
                        if tentative >= gs - 1e-9:
                            continue
                        if has_guide and guide_epoch[nnid] != guide_stamp:
                            if not soft:
                                continue
                            pen = 1
                        else:
                            pen = 0
                        holder = owner[nnid]
                        if holder != 0 and holder != net_id:
                            if holder == 1:
                                if target_epoch[nnid] != epoch:
                                    continue
                            elif not soft and target_epoch[nnid] != epoch:
                                continue
                            else:
                                pen += 2
                        else:
                            occ = occupancy[nnid]
                            if occ != 0 and occ != net_id:
                                if not soft and target_epoch[nnid] != epoch:
                                    continue
                                pen += 2
                        if pen:
                            tentative = g + pens[pen]
                            if tentative >= gs - 1e-9:
                                continue
                        if gs == _INF:
                            touched_append(nnid)
                        g_score[nnid] = tentative
                        came_from[nnid] = nid
                        hsum = (px0 + pdy[niy] + v0) if axis else (
                            pdx[nix] + py0 + v0
                        )
                        f = tentative + h_weight * hsum
                        b = bget(f)
                        if b is None:
                            buckets[f] = deque(((tentative, nnid),))
                            heappush(fheap, f)
                        else:
                            b.append((tentative, nnid))

                for up in (1, -1):
                    if up == 1:
                        if layer + 1 >= num_layers:
                            continue
                        nnid = nid + layer_stride
                        nl = layer + 1
                    else:
                        if layer == 0:
                            continue
                        nnid = nid - layer_stride
                        nl = layer - 1
                    gs = g_score[nnid]
                    tentative = t_via
                    if tentative >= gs - 1e-9:
                        continue
                    if has_guide and guide_epoch[nnid] != guide_stamp:
                        if not soft:
                            continue
                        pen = 1
                    else:
                        pen = 0
                    holder = owner[nnid]
                    if holder != 0 and holder != net_id:
                        if holder == 1:
                            if target_epoch[nnid] != epoch:
                                continue
                        elif not soft and target_epoch[nnid] != epoch:
                            continue
                        else:
                            pen += 2
                    else:
                        occ = occupancy[nnid]
                        if occ != 0 and occ != net_id:
                            if not soft and target_epoch[nnid] != epoch:
                                continue
                            pen += 2
                    if pen:
                        tentative = g + pen_via[pen]
                        if tentative >= gs - 1e-9:
                            continue
                    if gs == _INF:
                        touched_append(nnid)
                    g_score[nnid] = tentative
                    came_from[nnid] = nid
                    f = tentative + h_weight * (pxy0 + vdl[nl])
                    b = bget(f)
                    if b is None:
                        buckets[f] = deque(((tentative, nnid),))
                        heappush(fheap, f)
                    else:
                        b.append((tentative, nnid))

        return None
    finally:
        for tid in touched:
            g_score[tid] = _INF
        if stats is not None:
            stats.record(expansions)
        else:
            metrics = get_metrics()
            metrics.count("droute.astar_calls")
            metrics.observe("droute.astar_expansions", expansions)


def _build_result(
    index: DrouteIndex, nid: int, cost: float, net_id: int
) -> SearchResult:
    owner = index.owner
    occupancy = index.occupancy
    came_from = index.came_from
    nx, ny = index.nx, index.ny
    path_ids = [nid]
    while came_from[nid] != -1:
        nid = came_from[nid]
        path_ids.append(nid)
    path_ids.reverse()
    path: list[LNode] = []
    conflicts: list[LNode] = []
    for pid in path_ids:
        ix = pid % nx
        rest = pid // nx
        node = (rest // ny, ix, rest % ny)
        path.append(node)
        holder = owner[pid] or occupancy[pid]
        if holder > 1 and holder != net_id:  # not FREE/BLOCKED/self
            conflicts.append(node)
    return SearchResult(path=path, cost=cost, conflicts=conflicts)
