"""Flat-array indexed A* kernel for detailed routing.

Addressing scheme: every lattice node ``(layer, ix, iy)`` maps to a flat
node id ``nid = (layer * ny + iy) * nx + ix``; net names are interned to
small ints (``FREE = 0``, ``BLOCKED_ID = 1``, nets from 2).  All per-node
state — ownership, wire occupancy, ``g_score``/``came_from``, target and
guide membership — lives in dense arrays indexed by nid instead of
dict-of-tuple maps, which removes the tuple hashing and boxing that
dominates the dict-based reference (``tests/oracles/droute.py``).

Per-search state costs O(expanded), not O(lattice): ``g_score`` defaults
to ``inf`` and ``came_from`` to ``-1``, every slot written during a
search is recorded in a local ``touched`` list and both are restored in
the search's ``finally``, so a relax attempt reads exactly one array
slot to learn the incumbent cost and no search leaves a node id alive
behind it.  What does not depend on the search -- the per-layer step
descriptors and the ramps the heuristic's per-axis tables are sliced
from -- is built once per session (:meth:`DrouteIndex.search_tables`).
Target membership is epoch-stamped (bump a counter, compare
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
one loop with one relax for the hard and the soft search: what the
guide and ``soft`` decide is cached per node in ``gate`` on first touch
(five codes under a per-search stamp block), so the hot path reads
neither.  The oracle (the dict ``astar_connect`` and
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
from repro.groute import GuideRect

#: owner/occupancy ids; net ids are interned starting at 2
FREE = 0
BLOCKED_ID = 1

_INF = float("inf")

#: stride of ``DrouteIndex.gate_stamp``.  Every search and every pocket
#: look takes a fresh block of this many codes, so no mark of an earlier
#: block compares ``>=`` a later block's base; wide enough for the
#: search's five codes (``gstamp + 0`` free, ``gstamp + 1`` held by
#: another net, ``gstamp + _WALL``, ``gstamp + _INSIDE + 0..1`` the same
#: two on a node the look before a tolled search had marked) and the
#: look's two
GATE_BLOCK = 8
_WALL = 2
_INSIDE = 3

#: nodes :func:`pocket_closed` may visit before it gives up and lets the
#: forward search run; sized from the measured curve in DESIGN.md
#: ("Searches that are not run")
POCKET_BUDGET = 256


def guide_spans(
    lattice: TrackLattice,
    margin: int,
    net_guides: list[GuideRect],
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
        "reservations", "params", "margin", "_tables_key", "_tables",
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
        #: inf / -1 everywhere between searches; each search restores
        #: what it wrote (its ``touched`` list) on the way out
        self.g_score: list[float] = [_INF] * n
        self.came_from: list[int] = [-1] * n
        self.target_epoch: list[int] = [0] * n
        self.guide_epoch: list[int] = [0] * n
        #: lazy per-search passability cache, five codes over the live
        #: stamp: ``gate_stamp + pen`` with ``pen`` 0 (free) or 1 (held
        #: by another net) indexing a step's penalty table,
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
        #: :meth:`search_tables` of the last ``SearchParams`` asked for
        self._tables_key: tuple | None = None
        self._tables: tuple = ()

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

    # ---------------------------------------------------------------- tables

    def search_tables(self, params: SearchParams) -> tuple:
        """``(steps_of, x_ramps, y_ramps, l_ramps)`` for ``params``.

        Built on the first search of a session and again only when the
        cost constants change (never, in the router: one ``SearchParams``
        per session).  ``steps_of[layer]`` is the layer's step
        descriptors (:func:`astar_connect_indexed`, *Steps*); a penalty
        table is indexed by a ``gate`` code's offset: ``pen``, the wall
        (never read), ``_INSIDE + pen``.  The ramps are the ``(down,
        zero, up)`` lists :func:`_ramp` slices one heuristic axis from.
        """
        key = (params.via_cost, params.jog_factor, params.conflict_penalty)
        if key == self._tables_key:
            return self._tables
        lattice = self.lattice
        pitch = lattice.pitch
        nx, ny, num_layers = self.nx, self.ny, self.num_layers
        layer_stride = nx * ny
        via_cost = float(params.via_cost)
        # A float like the other two steps (exact: a dbu count), so that
        # the relax's ``g + step`` is always float + float.
        wire_cost = float(pitch)
        jog_cost = params.jog_factor * pitch
        conflict_penalty = float(params.conflict_penalty)
        pens_wire, pens_jog, pens_via = (
            (step, step + conflict_penalty, _INF, step, step + conflict_penalty)
            for step in (wire_cost, jog_cost, via_cost)
        )
        x_steps = ((1, 1, 0), (-1, -1, 0))  # (nid delta, dx, dy)
        y_steps = ((nx, 0, 1), (-nx, 0, -1))
        steps_of = []
        for layer in range(num_layers):
            steps = []
            if layer >= lattice.min_wire_layer:
                horizontal = lattice.tech.layers[layer].is_horizontal
                along, across = (x_steps, y_steps) if horizontal else (y_steps, x_steps)
                steps += [(dnid, wire_cost, pens_wire, dx, dy, 0) for dnid, dx, dy in along]
                steps += [(dnid, jog_cost, pens_jog, dx, dy, 0) for dnid, dx, dy in across]
            if layer + 1 < num_layers:
                steps.append((layer_stride, via_cost, pens_via, 0, 0, 1))
            if layer > 0:
                steps.append((-layer_stride, via_cost, pens_via, 0, 0, -1))
            steps_of.append(tuple(steps))
        # ``pitch`` is an int (dbu), so the x and y terms are ints and
        # ``(pdx[x] + pdy[y]) + vdl[l]`` is the oracle's ``pitch * (dx +
        # dy) + via_cost * dl`` float bit-for-bit.
        self._tables = (
            tuple(steps_of),
            _ramps(pitch, nx, 0),
            _ramps(pitch, ny, 0),
            _ramps(via_cost, num_layers, 0.0),
        )
        self._tables_key = key
        return self._tables

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
        """(guide stamp, search bounds) of one net."""
        per_layer, bounds = guide_spans(
            self.lattice, self.margin, net_guides, terminal_access
        )
        return self.stamp_guides(per_layer, terminal_access), bounds

    def connect(self, sources, targets, net_name, bounds, guide, soft, stats):
        net_id = self.intern(net_name)
        params = self.params
        toll = 0.0
        if pocket_closed(self, sources, targets, net_id, bounds, guide):
            # The targets sit in a pocket sealed against penalty-free
            # steps: a hard search can only come back ``None`` -- say so
            # without running it -- and a soft one must cross a node held
            # by another net before it gets in.
            if not soft:
                stats.skipped += 1
                return None
            stats.tolled += 1
            toll = float(params.conflict_penalty)
        return astar_connect_indexed(
            self, sources, targets, net_id, bounds, guide, params, soft, stats,
            toll,
        )

    def polyline_clear(self, corners, net_name: str, guide) -> bool:
        """Every node of the axis-parallel polyline through ``corners``
        after the first is free or ``net_name``'s own, and in ``guide``.

        Each leg is one strided slice of ``owner``, ``occupancy`` and
        ``guide_epoch`` (a leg's unit step is 1, ``nx`` or ``nx * ny``
        ids), judged by ``list.count``: the node order of a walk does not
        matter to an all-nodes test.
        """
        net_id = self.intern(net_name)
        owner = self.owner
        occupancy = self.occupancy
        guide_epoch = self.guide_epoch
        nx, ny = self.nx, self.ny
        layer, ix, iy = corners[0]
        nid = (layer * ny + iy) * nx + ix
        for layer, ix, iy in corners[1:]:
            end = (layer * ny + iy) * nx + ix
            delta = end - nid
            if not delta:
                continue
            unit = 1 if -nx < delta < nx else (nx if -nx * ny < delta < nx * ny else nx * ny)
            # the leg's nodes after ``nid``, as an ascending slice
            leg = slice(nid + unit, end + 1, unit) if delta > 0 else slice(end, nid, unit)
            nid = end
            size = abs(delta) // unit
            held = owner[leg]
            if held.count(0) + held.count(net_id) != size:
                return False
            held = occupancy[leg]
            if held.count(0) + held.count(net_id) != size:
                return False
            if guide_epoch[leg].count(guide) != size:
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
    off-guide one is marked but not flooded from.  The predecessors of a
    node are found from the search's own step descriptors
    (:meth:`DrouteIndex.search_tables`): each of the node's steps, taken
    backwards, reaches a node that steps onto it by the opposite one.
    Planar steps exist only on layers >= ``min_wire_layer`` and follow
    the search's window rule mirrored -- the *stepping* node is tested
    against the far bound, so the node stepped onto is tested against
    the near one; vias are unbounded.  Every predecessor is tested for source
    membership before anything else -- sources are seeds, never entered,
    so they need be neither passable nor inside ``bounds``.

    A flood that closes without meeting a source has two conclusions:

    * a *hard* search cannot pop a target, whether it would have ended
      by exhaustion or by ``max_expansions``: its answer is ``None``;
    * a *soft* search still owes one penalty.  Every node the flood
      touched -- entered, or examined and found impassable -- keeps its
      mark in ``gate``, and a step from an unmarked node onto a marked
      one always lands on an impassable one (a passable one's
      predecessors are all marked) -- a wall, or a node held by another
      net -- so it pays the conflict penalty there.  That is the *toll*
      ``DrouteIndex.connect`` hands the search: until a path has touched
      a marked node the toll is still ahead of it, and the estimate may
      say so.

    If the flood meets a source or visits more than
    :data:`POCKET_BUDGET` nodes the answer is "unknown" (``False``) and
    the search runs as if nobody had looked.

    The order the flood visits nodes in is free: whether it closes (its
    whole closure, no more than the budget, meets no source) and what it
    has marked when it does are properties of the closure, and the marks
    an "unknown" look leaves are read by no search (only a toll makes a
    search read the block below its own).
    """
    nx = index.nx
    ny = index.ny
    last_ix = nx - 1
    last_iy = ny - 1
    budget = POCKET_BUDGET
    ix0, iy0, ix1, iy1 = bounds
    # where every planar neighbour may step onto the node
    in_x0, in_x1 = max(ix0, 1), min(ix1, last_ix - 1)
    in_y0, in_y1 = max(iy0, 1), min(iy1, last_iy - 1)
    steps_of = index.search_tables(index.params)[0]
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
            push(nid)  # an off-guide target is a wall

    for nid in queue:  # grows while iterated: a FIFO without pops
        if len(queue) > budget:
            return False
        ix = nid % nx
        rest = nid // nx
        iy = rest % ny
        # The node's own steps, each read backwards: the neighbour a
        # step reaches is a predecessor by the opposite step, which its
        # layer has too.  Near the window the search's rule applies to
        # that neighbour: a +x step (-x predecessor) needs the node
        # short of ``last_ix`` and at or past ``ix0``, and so on.
        steps = steps_of[rest // ny]
        if not (in_x0 <= ix <= in_x1 and in_y0 <= iy <= in_y1):
            steps = [
                d for d in steps
                if (d[3] <= 0 or ix0 <= ix < last_ix)
                and (d[3] >= 0 or 0 < ix <= ix1)
                and (d[4] <= 0 or iy0 <= iy < last_iy)
                and (d[4] >= 0 or 0 < iy <= iy1)
            ]
        for d in steps:
            pid = nid + d[0]
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
    stats: SearchStats,
    toll: float = 0.0,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets`` (flat-array A*).

    One loop, one relax and one push serve the hard and the soft search;
    the guide and ``soft`` are read only where a node is classified.

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
    stack is absent.  They, and the ramps the heuristic tables are
    sliced from, are the session's (:meth:`DrouteIndex.search_tables`);
    what a search builds for itself is its five ``gate`` codes and
    three table slices.  An expansion strictly inside ``bounds`` iterates
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
       ``gstamp + pen`` with ``pen`` 0 (free) or 1 (held by another net)
       or ``gstamp + _WALL``.  Off the guide (when there is one) is a
       wall; a ``BLOCKED`` owner is passable only on a target and never
       penalized; a foreign owner or foreign wire is penalized when soft
       or on a target and a wall otherwise,
    3. for a penalized node, the filter again with ``g + pens[pen]`` —

    and only then the heuristic for the push.  ``pens`` is ``(step,
    step + conflict)`` (then the wall's ``inf`` and the same two again
    for inside codes), and the heuristic comes from per-axis
    lookup tables (``pdx``/``pdy``/``vdl``, each three slices of a
    session ramp, :func:`_ramp`): the track pitch is an
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

    ix0, iy0, ix1, iy1 = bounds
    t_ix0 = min(t[1] for t in targets)
    t_ix1 = max(t[1] for t in targets)
    t_iy0 = min(t[2] for t in targets)
    t_iy1 = max(t[2] for t in targets)
    t_l0 = min(t[0] for t in targets)
    t_l1 = max(t[0] for t in targets)

    nx = index.nx
    ny = index.ny
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
    codes = tuple(range(gstamp, gstamp + _INSIDE + 2))
    wall = codes[_WALL]
    # what the queue key of a node gives back, by code offset
    credit = (0.0,) * _INSIDE + (toll,) * 2

    heappush = heapq.heappush
    heappop = heapq.heappop
    h_weight = 1.0 if toll else params.heuristic_weight
    has_guide = guide_stamp is not None

    steps_of, x_ramps, y_ramps, l_ramps = index.search_tables(params)
    pdx = _ramp(x_ramps, t_ix0, t_ix1)
    pdy = _ramp(y_ramps, t_iy0, t_iy1)
    vdl = _ramp(l_ramps, t_l0, t_l1)

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
                    pen = 0
                    if has_guide and guide_epoch[nnid] != guide_stamp:
                        pen = _WALL
                    else:
                        holder = owner[nnid]
                        if holder == BLOCKED_ID:
                            if target_epoch[nnid] != epoch:
                                pen = _WALL
                        else:
                            if holder == 0 or holder == net_id:
                                holder = occupancy[nnid]
                            if holder != 0 and holder != net_id:
                                if soft or target_epoch[nnid] == epoch:
                                    pen = 1
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
            came_from[tid] = -1
        stats.record(expansions)


def _ramps(unit, n: int, zero) -> tuple[list, list, list]:
    """``(down, zero, up)`` for one axis of ``n`` coordinates: ``unit *
    n .. unit * 1``, ``n`` zeros, ``unit * 0 .. unit * (n - 1)``."""
    return (
        [unit * k for k in range(n, 0, -1)],
        [zero] * n,
        [unit * k for k in range(n)],
    )


def _ramp(ramps: tuple[list, list, list], lo: int, hi: int) -> list:
    """One axis of the heuristic for a target box ``[lo, hi]`` on it, per
    coordinate ``c``: ``unit * (lo - c)`` below, zero on, ``unit * (c -
    hi)`` above -- three slices of :func:`_ramps`' lists."""
    down, zero, up = ramps
    n = len(down)
    return down[n - lo:] + zero[:hi - lo + 1] + up[1:n - hi]


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
