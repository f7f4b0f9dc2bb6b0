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
costs, same hard/soft conflict semantics, same window rule — so paths,
costs, conflict lists and expansion counts are byte-identical.  It is
one loop with one relax for every (soft, guide) combination: what the
two flags decide is cached per node in ``gate`` on first touch (nine
codes under a per-search stamp block), so the hot path reads neither.
The oracle (the dict ``astar_connect`` and
its ``_DictState``) lives in ``tests/oracles/droute.py``; the parity
suite installs it through :meth:`DetailedRouter.begin_session`.

:class:`DrouteIndex` is also the router's *session state*: the eight
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

#: stride of ``DrouteIndex.gate_stamp``.  Every search and every pocket
#: look takes a fresh block of this many codes, so no mark of an earlier
#: block compares ``>=`` a later block's base; wide enough for the
#: search's nine codes (``gstamp + 0..3`` penalty index, ``gstamp +
#: _WALL``, ``gstamp + _INSIDE + 0..3`` the same penalties on a node the
#: look before a tolled search had marked) and the look's two
GATE_BLOCK = 16
_WALL = 4
_INSIDE = 5

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
        #: lazy per-search passability cache, nine codes over the live
        #: stamp: ``gate_stamp + pen`` with ``pen`` in 0..3 indexing a
        #: step's penalty table (+1 off-guide, +2 held by another net),
        #: ``gate_stamp + _WALL``, and ``gate_stamp + _INSIDE + pen`` for
        #: a node the preceding look had marked (tolled searches only);
        #: anything older than the live stamp means "not classified yet".
        #: :func:`pocket_closed` borrows it under a stamp block of its
        #: own, ``gate_stamp + {0: visited, 1: source}``; both advance
        #: ``gate_stamp`` by :data:`GATE_BLOCK`
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
        params = self.params
        toll = 0.0
        if pocket_closed(self, sources, targets, net_id, bounds, guide):
            # The targets sit in a pocket sealed against penalty-free
            # steps: a hard search can only come back ``None`` -- say so
            # without running it -- and a soft one must pay the smallest
            # penalty in force before it gets in.
            if not soft:
                if stats is not None:
                    stats.skipped += 1
                else:
                    get_metrics().count("droute.hard_skipped")
                return None
            if stats is not None:
                stats.tolled += 1
            else:
                get_metrics().count("droute.soft_tolled")
            toll = float(params.conflict_penalty)
            if guide is not None:
                toll = min(toll, float(params.off_guide_penalty))
        return astar_connect_indexed(
            self,
            sources,
            targets,
            net_id,
            bounds,
            guide,
            params,
            soft=soft,
            stats=stats,
            toll=toll,
        )

    def run_clear(self, nodes, net_name: str, guide) -> bool:
        """Every node of ``nodes`` is free or ``net_name``'s own, and in ``guide``."""
        net_id = self.intern(net_name)
        owner = self.owner
        occupancy = self.occupancy
        guide_epoch = self.guide_epoch
        nx, ny = self.nx, self.ny
        for layer, ix, iy in nodes:
            nid = (layer * ny + iy) * nx + ix
            holder = owner[nid]
            if holder != 0 and holder != net_id:
                return False
            holder = occupancy[nid]
            if holder != 0 and holder != net_id:
                return False
            if guide is not None and guide_epoch[nid] != guide:
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
    guide_stamp: int | None,
) -> bool:
    """True when no penalty-free path leads from ``sources`` to ``targets``.

    A bounded flood *backwards* from the targets over exactly the nodes
    a step of :func:`astar_connect_indexed` enters at ``pen == 0``,
    hard or soft: free-or-own in both ``owner`` and ``occupancy`` and,
    when a guide is given, carrying its stamp (``guide_stamp=None``: no
    guide test).  Targets seed the flood whoever holds them -- an
    off-guide one is marked but not flooded from.  Planar steps exist
    only on layers >= ``min_wire_layer`` and follow the search's window
    rule mirrored -- the *stepping* node is tested against the far
    bound, so the node stepped onto is tested against the near one;
    vias are unbounded.  Every predecessor is tested for source
    membership before anything else -- sources are seeds, never entered,
    so they need be neither passable nor inside ``bounds``.

    A flood that closes without meeting a source has two conclusions:

    * a *hard* search cannot pop a target, whether it would have ended
      by exhaustion or by ``max_expansions``: its answer is ``None``;
    * a *soft* search still owes one penalty.  Every node the flood
      touched -- entered, or examined and found impassable -- keeps its
      mark in ``gate``, and a step from an unmarked node onto a marked
      one always lands on an impassable one (a passable one's
      predecessors are all marked), so it pays at least the smallest
      penalty there is.  That is the *toll* ``DrouteIndex.connect``
      hands the search: until a path has touched a marked node the
      toll is still ahead of it, and the estimate may say so.

    If the flood meets a source or visits more than
    :data:`POCKET_BUDGET` nodes the answer is "unknown" (``False``) and
    the search runs as if nobody had looked.
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
    unguided = guide_stamp is None
    # Marks go in ``gate`` under a fresh stamp block; the forward search
    # that follows takes the next one, so it reads every mark left here
    # as "not classified yet" -- and, under a toll, as "inside".
    look = index.gate
    seen = index.gate_stamp + GATE_BLOCK
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
        look[nid] = seen
        if unguided or guide_epoch[nid] == guide_stamp:
            push(nid)  # an off-guide target is a wall (hard) or a penalty

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
            if unguided or guide_epoch[pid] == guide_stamp:
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
    net_id: int,
    bounds: tuple[int, int, int, int],
    guide_stamp: int | None,
    params: SearchParams,
    soft: bool,
    stats: SearchStats | None = None,
    toll: float = 0.0,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets`` (flat-array A*).

    One loop, one relax and one push serve every (``soft``, guide)
    combination; the two flags are read only where a node is classified.

    The open set is a *bucket queue*: a dict of per-f FIFO deques of
    ``(g, nid)`` pairs plus a small binary heap over the distinct f
    values that currently own a live bucket.  Popping the front of the
    minimum-f bucket yields entries in (f, insertion order) — exactly
    the (f, tie) order of the oracle's flat heap, entry for entry —
    while a push onto a live bucket (about every second one, see
    DESIGN.md) is one dict probe plus a deque append instead of an
    O(log n) tuple sift.  Sources/targets are iterated from the caller's
    own sets so seeding order is shared with the oracle byte-for-byte.

    *Steps.*  Each layer has a tuple of step descriptors ``(nid delta,
    base step, penalty table, dx, dy, dl)`` in the oracle's candidate
    order: along-track +/-, jog +/-, via up, via down; layers below
    ``min_wire_layer`` have vias only, and a via that would leave the
    stack is absent.  An expansion strictly inside ``bounds`` iterates
    its layer's tuple as is.  One on or outside the edge filters it with
    the *window rule*: a planar step needs the stepping node short of
    the far bound in the direction of motion (``ix < ix1`` for +x,
    ``ix > ix0`` for -x, same for y) — so seeds outside the window walk
    towards it — and vias are unbounded.

    *Relax*, cheapest test first:

    1. a *dominance filter* — the penalty-free ``g + step`` must already
       beat the incumbent ``g_score``; penalties only grow the cost and
       float addition is monotone, so any relax it skips was doomed,
    2. the ``gate`` passability cache — guide membership, owner,
       occupancy and target membership are static for one search, so
       they collapse into one per-node code written on first touch:
       ``gstamp + pen`` with ``pen`` in 0..3 (+1 off-guide, +2 held by
       another net) or ``gstamp + _WALL``.  Off-guide is a wall when
       hard; a ``BLOCKED`` owner is passable only on a target and never
       penalized; a foreign owner or foreign wire is penalized when soft
       or on a target and a wall otherwise,
    3. for a penalized node, the filter again with ``g + pens[pen]`` —

    and only then the heuristic for the push.  ``pens`` is ``(step,
    step + off_guide, step + conflict, (step + conflict) + off_guide)``,
    the oracle's addition order, and the heuristic comes from per-axis
    lookup tables (``pdx``/``pdy``/``vdl``): the track pitch is an
    integral dbu count, so the tabulated terms recompose into the
    oracle's ``pitch * (dx + dy) + via_cost * dl`` bit-for-bit.  Every
    accepted ``tentative`` and every ``f`` is therefore the oracle's
    float exactly.

    *Toll.*  ``toll > 0`` is ``DrouteIndex.connect``'s promise that the
    last stamp block taken before this search's is a closed
    :func:`pocket_closed` look for the same problem, so every path still
    has to pay at least ``toll`` in penalties before it touches a node
    that look marked.  The estimate then carries it: ``h'(n) = h(n) +
    toll`` for every unmarked ``n`` -- admissible and consistent
    (DESIGN.md, "Crossings that are proven") -- and the weight is 1.0,
    since an estimate that sees the crossing needs no inflation to stay
    directed.  Whether a node is *inside* (marked) is read once, at its
    first touch, from the look's mark still sitting in ``gate`` one
    block below, and kept in its code (``gstamp + _INSIDE + pen``).  The
    queue orders by ``f - toll * [inside]`` rather than ``f + toll *
    [outside]``: the same order -- every term is a multiple of half a
    pitch, so the shift is exact -- and a free outside node, the common
    case, takes the same path through the relax as without a toll.
    With ``toll == 0.0`` no node is ever inside and every expression
    below is the un-tolled one.
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
    gate = index.gate
    # Under a toll the closed look's block is the one just below ours;
    # without one nothing older than ``gstamp`` counts as inside.
    look_base = index.gate_stamp if toll else index.gate_stamp + GATE_BLOCK
    gstamp = index.gate_stamp + GATE_BLOCK
    index.gate_stamp = gstamp
    # one int object per code, shared by every slot that holds it
    codes = tuple(range(gstamp, gstamp + _INSIDE + 4))
    wall = codes[_WALL]
    # what the queue key of a node gives back, by code offset
    credit = (0.0,) * _INSIDE + (toll,) * 4

    heappush = heapq.heappush
    heappop = heapq.heappop
    h_weight = 1.0 if toll else params.heuristic_weight
    has_guide = guide_stamp is not None

    # A float like the other two steps (exact: a dbu count), so that the
    # relax's ``g + step`` is always float + float.
    wire_cost = float(pitch)
    # Penalized step costs, formed in the oracle's addition order (base,
    # ``+= conflict``, ``+= off_guide``) and indexed by code offset:
    # ``pen``, the wall (never read), ``_INSIDE + pen``.
    pens_wire, pens_jog, pens_via = (
        by_pen + (_INF,) + by_pen
        for by_pen in (
            (
                step,
                step + off_guide_penalty,
                step + conflict_penalty,
                (step + conflict_penalty) + off_guide_penalty,
            )
            for step in (wire_cost, jog_cost, via_cost)
        )
    )
    x_steps = ((1, 1, 0), (-1, -1, 0))  # (nid delta, dx, dy)
    y_steps = ((nx, 0, 1), (-nx, 0, -1))
    steps_of = []
    for layer in range(num_layers):
        steps = []
        if layer >= min_wire:
            along, across = (x_steps, y_steps) if horiz[layer] else (y_steps, x_steps)
            steps += [(dnid, wire_cost, pens_wire, dx, dy, 0) for dnid, dx, dy in along]
            steps += [(dnid, jog_cost, pens_jog, dx, dy, 0) for dnid, dx, dy in across]
        if layer + 1 < num_layers:
            steps.append((layer_stride, via_cost, pens_via, 0, 0, 1))
        if layer > 0:
            steps.append((-layer_stride, via_cost, pens_via, 0, 0, -1))
        steps_of.append(tuple(steps))

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
            heappush(fheap, f)
        else:
            b.append((0.0, nid))
    for layer, tix, tiy in targets:
        target_epoch[(layer * ny + tiy) * nx + tix] = epoch

    expansions = 0
    max_expansions = params.max_expansions
    if soft:
        max_expansions = int(max_expansions * params.soft_budget_factor)

    try:
        while fheap and expansions < max_expansions:
            f0 = fheap[0]
            b = buckets[f0]
            g, nid = b.popleft()
            if not b:
                del buckets[f0]
                heappop(fheap)
            # Every queue entry wrote its g at push time, so
            # g_score[nid] is live here; stale entries carry a larger g.
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
            steps = steps_of[layer]
            if not (ix0 < ix < ix1 and iy0 < iy < iy1):
                steps = [
                    d for d in steps
                    if (d[3] <= 0 or ix < ix1) and (d[3] >= 0 or ix > ix0)
                    and (d[4] <= 0 or iy < iy1) and (d[4] >= 0 or iy > iy0)
                ]

            for dnid, step, pens, dx, dy, dl in steps:
                nnid = nid + dnid
                gs = g_score[nnid]
                tentative = g + step
                if tentative >= gs - 1e-9:
                    continue
                gv = gate[nnid]
                if gv < gstamp:
                    if has_guide and guide_epoch[nnid] != guide_stamp:
                        pen = 1 if soft else _WALL
                    else:
                        pen = 0
                    if pen != _WALL:
                        holder = owner[nnid]
                        if holder == BLOCKED_ID:
                            if target_epoch[nnid] != epoch:
                                pen = _WALL
                        else:
                            if holder == 0 or holder == net_id:
                                holder = occupancy[nnid]
                            if holder != 0 and holder != net_id:
                                if soft or target_epoch[nnid] == epoch:
                                    pen += 2
                                else:
                                    pen = _WALL
                    if gv >= look_base and pen != _WALL:
                        pen += _INSIDE
                    gv = gate[nnid] = codes[pen]
                if gv == gstamp:
                    f = tentative + h_weight * (
                        pdx[ix + dx] + pdy[iy + dy] + vdl[layer + dl]
                    )
                elif gv == wall:
                    continue
                else:
                    code = gv - gstamp
                    tentative = g + pens[code]
                    if tentative >= gs - 1e-9:
                        continue
                    f = tentative + h_weight * (
                        pdx[ix + dx] + pdy[iy + dy] + vdl[layer + dl]
                    ) - credit[code]
                if gs == _INF:
                    touched_append(nnid)
                g_score[nnid] = tentative
                came_from[nnid] = nid
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
