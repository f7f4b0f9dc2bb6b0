"""Flat-array detailed-routing state and its C kernel.

Addressing scheme: every lattice node ``(layer, ix, iy)`` maps to a flat
node id ``nid = (layer * ny + iy) * nx + ix``; net names are interned to
small ints (``FREE = 0``, ``BLOCKED_ID = 1``, nets from 2).  All per-node
state -- ownership, wire occupancy, negotiated ``history`` cost,
``g_score``/``came_from``, target and guide membership, the passability
cache ``gate`` -- lives in typed ``array.array`` buffers indexed by nid:
``owner``, ``occupancy`` and ``came_from`` as ``i``, ``history`` and
``g_score`` as ``d``, the stamps ``target_epoch``, ``guide_epoch`` and
``gate`` as ``q`` (64 bits, so they never wrap).

Everything detailed routing does per node runs in ``_kernel.c``, which
reads and writes those buffers in place through ``ctypes``: per net, the
guide stamp (``drk_guide``) and the min-area patch with the commit of
its nodes (``drk_commit``); per
connection, the whole ladder (``drk_connect``) -- the L-shaped tries,
the pocket look, the hard search and the tolled or plain soft search.
:func:`load_kernel` compiles it with the system ``cc`` on the first
:class:`DrouteIndex` and caches the shared object in ``__pycache__``;
there is no Python copy of any of it and no fallback (DESIGN.md,
"Detailed-routing kernel").  Python converts the terminals to node ids
once per connection -- in the iteration order of the router's tuple sets,
which is the order the kernel seeds and breaks ties in -- records the
counters, and turns the ids the kernel hands back into tuples.

Per-search state costs O(expanded), not O(lattice): ``g_score`` is
``inf`` and ``came_from`` ``-1`` between searches, and the kernel
restores every slot it wrote on every exit.  Target and guide membership
are epoch-stamped (bump a counter, compare stamps); the counters live in
the kernel's ``Index`` record.

Parity contract: every kernel entry is the dict oracle in
``tests/oracles/droute.py`` step for step -- the search and the look
expansion-order-identical to ``astar_connect`` and ``pocket_look`` (same
seed order, same (f, insertion order) queue order as the oracle's (f,
tie) heap, same float expressions, same hard/soft conflict semantics,
same window rule), the L tries, the guide stamp and the patch to the
moved Python -- so paths, costs, conflict lists, expansion counts,
patches and islands are byte-identical; the parity suite installs the
oracle through :meth:`DetailedRouter.begin_session`.

:class:`DrouteIndex` is also the router's *session state*: the seven
methods under "session state" are everything
:class:`~repro.droute.router.DetailedRouter` asks of it, and the only
seam a test needs to substitute the reference.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
import types
from array import array
from pathlib import Path

from repro.droute.astar import SearchParams, SearchResult
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.obs import get_metrics

#: owner/occupancy ids; net ids are interned starting at 2
FREE = 0
BLOCKED_ID = 1

#: the rungs of one connection, tried in this order (``rungs`` of
#: :meth:`DrouteIndex.connect`): the L-shaped tries on the guide, the hard
#: search on it, the soft search off it
FAST, HARD, SOFT = 1, 2, 4
LADDER = FAST | HARD | SOFT

#: ``drk_*`` status for a terminal, window or guide off the lattice
_OFF_LATTICE = -2

_INF = float("inf")

#: nodes :func:`pocket_closed` may visit before it gives up and lets the
#: forward search run; sized from the measured curve in DESIGN.md
#: ("Searches that are not run")
POCKET_BUDGET = 256

_SOURCE = Path(__file__).with_name("_kernel.c")
#: no -ffast-math and no -march: the kernel's floats must be the oracle's,
#: and -ffp-contract=off keeps ``a + w * h`` from fusing into one FMA
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def load_kernel() -> types.SimpleNamespace:
    """Compile (once per source and flags) and load ``_kernel.c``.

    The shared object is ``__pycache__/_kernel.<hash>.so`` beside the
    source, named by a hash of the source and :data:`_CFLAGS`, written to
    a temporary file and moved into place, so concurrent first runs do not
    see a half-written library.  A missing or failing compiler raises
    ``RuntimeError`` with its message.
    """
    import ctypes
    import subprocess

    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _SOURCE.parent / "__pycache__"
    built = cache / f"_kernel.{tag}.so"
    if not built.exists():
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            done = subprocess.run(
                ["cc", *_CFLAGS, "-o", tmp, str(_SOURCE)],
                capture_output=True, text=True,
            )
            if done.returncode:
                raise RuntimeError(f"cannot compile {_SOURCE}:\n{done.stderr}")
            os.replace(tmp, built)
        except OSError as exc:  # no ``cc`` on the PATH, or no write access
            raise RuntimeError(f"cannot compile {_SOURCE}: {exc}") from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(built))

    c_void_p, c_int32, c_int64, c_double = (
        ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    )

    class Index(ctypes.Structure):
        """``Index`` of ``_kernel.c``: buffer addresses, geometry, the
        cost constants of the next call, the stamp counters and what the
        last call found."""

        _fields_ = [
            (name, c_void_p) for name in (
                "owner", "occupancy", "came_from", "g_score",
                "target_epoch", "guide_epoch", "gate", "horizontal",
                "history", "min_area", "path",
            )
        ] + [
            (name, c_int32) for name in ("nx", "ny", "num_layers", "min_wire_layer")
        ] + [
            (name, c_int64) for name in ("pitch", "die_lx", "die_ly", "offset", "margin")
        ] + [
            (name, c_double) for name in (
                "via_cost", "jog_factor", "conflict_penalty", "heuristic_weight",
                "soft_budget_factor",
            )
        ] + [
            (name, c_int64) for name in (
                "max_expansions", "pocket_budget", "epoch", "gate_stamp",
                "guide_stamp",
            )
        ] + [
            ("cost", c_double), ("expansions", c_int64),
            ("hard_expansions", c_int64), ("soft_expansions", c_int64),
            ("hard_skipped", c_int32), ("soft_tolled", c_int32),
            ("path_len", c_int32), ("bounds", c_int32 * 4),
        ]

    # (index, sources, n, targets, n, net, ix0, iy0, ix1, iy1, guide stamp)
    common = [ctypes.POINTER(Index), c_void_p, c_int32, c_void_p, c_int32]
    common += [c_int32] * 5 + [c_int64]
    lib.drk_connect.argtypes = common + [c_int32]
    lib.drk_connect.restype = c_int32
    lib.drk_search.argtypes = common + [c_int32, c_double]
    lib.drk_search.restype = c_int64
    lib.drk_pocket.argtypes = common
    lib.drk_pocket.restype = c_int32
    lib.drk_guide.argtypes = [
        ctypes.POINTER(Index), c_void_p, c_int32, c_void_p, c_int32,
    ]
    lib.drk_guide.restype = c_int64
    lib.drk_commit.argtypes = [
        ctypes.POINTER(Index), c_void_p, c_int32, c_void_p, c_int32, c_int32,
        c_void_p,
    ]
    lib.drk_commit.restype = c_int32
    return types.SimpleNamespace(
        connect=lib.drk_connect, search=lib.drk_search, pocket=lib.drk_pocket,
        guide=lib.drk_guide, commit=lib.drk_commit, Index=Index,
    )


def _check(status: int, what: str) -> None:
    """Raise for a kernel call's failure status."""
    if status == _OFF_LATTICE:
        raise IndexError(f"detailed-routing {what} off the lattice")
    if status < 0:
        raise MemoryError(f"detailed-routing {what}")


class DrouteIndex:
    """Dense per-node routing state addressed by flat node ids.

    Net-id assignment follows interning order and never leaves the
    session: results carry node tuples and net *names*, so the order in
    which nets are first seen does not affect them.
    """

    __slots__ = (
        "lattice", "nx", "ny", "num_layers", "num_nodes",
        "names", "ids", "owner", "occupancy", "history",
        "g_score", "came_from", "target_epoch", "guide_epoch",
        "gate", "path", "reservations", "params",
        "_kernel", "_horizontal", "_min_area", "_patch_words", "_c",
    )

    def __init__(
        self,
        lattice: TrackLattice,
        owner_map: dict[LNode, str],
        reservations: dict[str, list[LNode]] | None = None,
        params: SearchParams | None = None,
        guide_margin: int = 0,
    ) -> None:
        self._kernel = kernel = load_kernel()
        self.lattice = lattice
        #: per-net escape-via landings still held for that net; keyed
        #: by name with tuple nodes (rare, never on the hot path)
        self.reservations = reservations if reservations is not None else {}
        self.params = params or SearchParams()
        self.nx = nx = lattice.nx
        self.ny = ny = lattice.ny
        self.num_layers = num_layers = lattice.tech.num_layers
        self.num_nodes = n = num_layers * ny * nx
        self.names: list[str | None] = [None, BLOCKED]
        self.ids: dict[str, int] = {BLOCKED: BLOCKED_ID}

        self.owner = array("i", bytes(4 * n))
        for (layer, ix, iy), name in owner_map.items():
            self.owner[(layer * ny + iy) * nx + ix] = self.intern(name)
        self.occupancy = array("i", bytes(4 * n))
        #: cost every search adds to a step onto the node, grown by the
        #: router's negotiation rounds (:meth:`add_history`): never
        #: negative, and a whole dbu count, so the toll shift stays exact
        self.history = array("d", bytes(8 * n))
        #: inf / -1 everywhere between searches; the kernel restores what
        #: a search wrote on the way out
        self.g_score = array("d", [_INF]) * n
        self.came_from = array("i", [-1]) * n
        self.target_epoch = array("q", bytes(8 * n))
        self.guide_epoch = array("q", bytes(8 * n))
        #: lazy per-search passability cache: five codes over the search's
        #: stamp block, anything older meaning "not classified yet"; the
        #: pocket look borrows it under a block of its own (``GATE_BLOCK``
        #: in ``_kernel.c``)
        self.gate = array("q", bytes(8 * n))
        #: the node ids of the last path found, source first: a search's
        #: path visits no node twice, an L try's at most
        #: ``nx + ny + 3 * num_layers``
        self.path = array("i", bytes(4 * (n + nx + ny + 3 * num_layers)))

        self._horizontal = array(
            "i", [layer.is_horizontal for layer in lattice.tech.layers]
        )
        self._min_area = array("i", lattice.min_area_nodes())
        #: ids a patch writes per used node, at most (``drk_commit``)
        self._patch_words = max(0, 2 * max(self._min_area) - 1)
        # No buffer is ever resized, so the addresses stay valid.
        self._c = kernel.Index(
            *(
                buf.buffer_info()[0] for buf in (
                    self.owner, self.occupancy, self.came_from, self.g_score,
                    self.target_epoch, self.guide_epoch, self.gate,
                    self._horizontal, self.history, self._min_area, self.path,
                )
            ),
            nx, ny, num_layers, lattice.min_wire_layer, lattice.pitch,
            lattice.die.lx, lattice.die.ly, lattice.offset, guide_margin,
        )

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

    def _ids(self, nodes) -> array:
        """``nodes`` as node ids, in their iteration order."""
        nx, ny = self.nx, self.ny
        return array("i", [(layer * ny + iy) * nx + ix for layer, ix, iy in nodes])

    def _load(self, params: SearchParams) -> None:
        """The cost constants of the next kernel call."""
        c = self._c
        c.via_cost = params.via_cost
        c.jog_factor = params.jog_factor
        c.conflict_penalty = params.conflict_penalty
        c.heuristic_weight = params.heuristic_weight
        c.soft_budget_factor = params.soft_budget_factor
        c.max_expansions = params.max_expansions
        c.pocket_budget = POCKET_BUDGET

    # --------------------------------------------------------- session state

    def guide_region(self, net_guides, terminal_access):
        """(guide stamp, search bounds) of one net: ``drk_guide`` stamps
        every track crossing of each guide rect grown by the guide margin,
        and the terminals with their escape landings (one layer up)."""
        rects = array("q")
        for guide in net_guides:
            rect = guide.rect
            rects.extend((guide.layer, rect.lx, rect.ly, rect.ux, rect.uy))
        terminals = self._ids(node for nodes in terminal_access for node in nodes)
        c = self._c
        stamp = self._kernel.guide(
            c, rects.buffer_info()[0], len(rects) // 5,
            terminals.buffer_info()[0], len(terminals),
        )
        _check(stamp, "guide")
        return stamp, tuple(c.bounds)

    def connect(self, sources, targets, net_name, bounds, guide, rungs=LADDER):
        """Connect ``sources`` to ``targets``: the first of ``rungs`` that
        finds a path answers (``drk_connect``), or ``None``.

        :data:`FAST` is the L-shaped tries: the closest (source, target)
        pair -- of equally close pairs, the first in the sets' iteration
        order -- and both bend orders over the two lowest horizontal and
        vertical wire layers, priced in closed form; the cheapest whose
        every node after the source is free for this net and on ``guide``
        wins, candidate order breaking ties.  So it is always a path the
        hard search could also have found.  :data:`HARD` is the pocket look
        (:func:`pocket_closed`) and, unless it closed -- counted as
        ``droute.hard_skipped`` -- the hard search on ``guide``.
        :data:`SOFT` is the look and the soft search with no guide; when
        that look closed the search runs under a toll of
        ``conflict_penalty`` (``droute.soft_tolled``).  Each search that
        runs counts ``droute.astar_calls`` and records its expansions.
        """
        if not sources or not targets:
            return None
        overlap = sources & targets
        if overlap:
            return SearchResult(path=[next(iter(overlap))], cost=0.0, conflicts=[])
        net_id = self.intern(net_name)
        self._load(self.params)
        src, tgt = self._ids(sources), self._ids(targets)
        c = self._c
        rung = self._kernel.connect(
            c, src.buffer_info()[0], len(src), tgt.buffer_info()[0], len(tgt),
            net_id, *bounds, -1 if guide is None else guide, rungs,
        )
        _check(rung, "connection")
        metrics = get_metrics()
        if c.hard_skipped:
            metrics.count("droute.hard_skipped")
        if c.hard_expansions >= 0:
            metrics.count("droute.astar_calls")
            metrics.observe("droute.astar_expansions", c.hard_expansions)
        if c.soft_tolled:
            metrics.count("droute.soft_tolled")
        if c.soft_expansions >= 0:
            metrics.count("droute.astar_calls")
            metrics.observe("droute.astar_expansions", c.soft_expansions)
        if not rung:
            return None
        return _build_result(self, c.path_len, c.cost)

    def commit(self, net_name, used, terminal_access):
        """Patch ``net_name``'s min-area islands, then land its occupancy
        (``drk_commit``): every node of ``used`` that no net occupies
        becomes the net's.

        Real detailed routers insert metal patches where via stacks leave
        isolated landing pads below the minimum-area rule; this models
        that.  Per layer with a rule, every planar component of ``used``
        without a terminal node and below the layer's node count
        (:meth:`TrackLattice.min_area_nodes`) grows: from its nodes in
        sorted order, each claims its first neighbour -- wire, then jog --
        that is not in the component and whose holder (``owner``, else
        ``occupancy``) is free or this net, and is tried again; a claim of
        a node the net does not hold adds it to ``used`` and charges one
        node of wire.  Growth reads only the committed state and the
        island's own component, so the order the islands grow in is
        immaterial.  Returns the charged node count and the islands that
        stayed under-sized -- each stuck component as it stands after
        every patch on its layer, as ``(layer, frozenset of (ix, iy))`` --
        by layer and then seed.
        """
        ids = self._ids(used)
        pins = self._ids(node for nodes in terminal_access for node in nodes)
        out = array("i", bytes(4 * max(1, len(ids) * self._patch_words)))
        added = self._kernel.commit(
            self._c, ids.buffer_info()[0], len(ids), pins.buffer_info()[0],
            len(pins), self.intern(net_name), out.buffer_info()[0],
        )
        _check(added, "commit")
        nx, ny = self.nx, self.ny
        used.update(_nodes(out[:added], nx, ny))
        islands = []
        for nid in out[added:self._c.path_len]:
            if nid < 0:
                nid = -nid - 1
                component = set()
                islands.append((nid // (nx * ny), component))
            component.add((nid % nx, nid // nx % ny))
        return added, [(layer, frozenset(nodes)) for layer, nodes in islands]

    def holder_name(self, node: LNode) -> str | None:
        nid = self.nid_of(node)
        return self.name_of(self.owner[nid] or self.occupancy[nid])

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

    def add_history(self, nodes, amount: float) -> None:
        history = self.history
        for node in nodes:
            history[self.nid_of(node)] += amount


def pocket_closed(
    index: DrouteIndex,
    sources: set[LNode],
    targets: set[LNode],
    net_id: int,
    bounds: tuple[int, int, int, int],
    guide_stamp: int | None,
) -> bool:
    """True when no penalty-free path leads from ``sources`` to ``targets``.

    A bounded flood *backwards* from the targets (``drk_pocket`` in
    ``_kernel.c``) over exactly the nodes a step of
    :func:`astar_connect_indexed` enters at ``pen == 0``, hard or soft:
    free-or-own in both ``owner`` and ``occupancy`` and, when a guide is
    given, carrying its stamp (``guide_stamp=None``: no guide test).
    Targets seed the flood whoever holds them -- an off-guide one is
    marked but not flooded from.  The predecessors of a node are found
    from the search's own steps: each of the node's steps, taken
    backwards, reaches a node that steps onto it by the opposite one.
    Planar steps exist only on layers >= ``min_wire_layer`` and follow the
    search's window rule mirrored -- the *stepping* node is tested against
    the far bound, so the node stepped onto is tested against the near
    one; vias are unbounded.  Every predecessor is tested for source
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

    If the flood meets a source or its FIFO holds more than
    :data:`POCKET_BUDGET` nodes the answer is "unknown" (``False``) and
    the search runs as if nobody had looked.  The marks an "unknown" look
    leaves are read by no search (only a toll makes a search read the
    block below its own).
    """
    # Marks go in ``gate`` under a fresh stamp block; the forward search
    # that follows takes the next one, so it reads every mark left here
    # as "not classified yet" -- and, under a toll, as "inside".
    index._load(index.params)
    src, tgt = index._ids(sources), index._ids(targets)
    closed = index._kernel.pocket(
        index._c, src.buffer_info()[0], len(src),
        tgt.buffer_info()[0], len(tgt), net_id, *bounds,
        -1 if guide_stamp is None else guide_stamp,
    )
    _check(closed, "pocket look")
    return bool(closed)


def astar_connect_indexed(
    index: DrouteIndex,
    sources: set[LNode],
    targets: set[LNode],
    net_id: int,
    bounds: tuple[int, int, int, int],
    guide_stamp: int | None,
    params: SearchParams,
    soft: bool,
    toll: float = 0.0,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets`` (``drk_search``
    in ``_kernel.c``).  A search that runs counts ``droute.astar_calls``
    and records its expansions in ``droute.astar_expansions``.

    One loop, one relax and one push serve the hard and the soft search;
    the guide and ``soft`` are read only where a node is classified.  The
    open set is a binary heap ordered by ``(f, insertion seq)`` -- the
    (f, tie) order of the oracle's heap, entry for entry -- and the seeds
    are pushed in the iteration order of the caller's ``sources``.

    *Steps.*  Each layer's steps follow the oracle's candidate order:
    along-track +/-, jog +/-, via up, via down; layers below
    ``min_wire_layer`` have vias only, and a via that would leave the
    stack is absent.  An expansion strictly inside ``bounds`` takes every
    step.  One on or outside the edge applies the *window rule*: a planar
    step needs the stepping node short of the far bound in the direction
    of motion (``ix < ix1`` for +x, ``ix > ix0`` for -x, same for y) -- so
    seeds outside the window walk towards it -- and vias are unbounded.

    *Relax*, cheapest test first:

    1. a *dominance filter* -- the penalty-free ``g + (step +
       history)`` must already beat the incumbent ``g_score``; penalties
       only grow the cost and float addition is monotone, so any relax it
       skips was doomed,
    2. the ``gate`` passability cache -- guide membership, owner,
       occupancy and target membership are static for one search, so
       they collapse into one per-node code written on first touch:
       free, held by another net, or a wall.  Off the guide (when there
       is one) is a wall; a ``BLOCKED`` owner is passable only on a
       target and never penalized; a foreign owner or foreign wire is
       penalized when soft or on a target and a wall otherwise,
    3. for a penalized node, the filter again with ``g + ((step +
       conflict_penalty) + history)`` --

    and only then the heuristic for the push, ``h_weight * (pitch * (dx
    + dy) + via_cost * dl)`` to the targets' bounding box: the planar
    part an exact integer, so every accepted ``tentative`` and every
    ``f`` is the oracle's float exactly.  ``history`` is never negative
    -- it only adds to a step, so the estimate stays admissible -- and a
    whole dbu count, so every sum below stays exact.

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
    block below, and kept in its code.  The queue orders by ``f - toll *
    [inside]`` rather than ``f + toll * [outside]``: the same order --
    every term is a multiple of half a pitch, so the shift is exact --
    and a free outside node, the common case, takes the same path
    through the relax as without a toll.  With ``toll == 0.0`` no node is
    ever inside and every expression is the un-tolled one.
    """
    if not sources or not targets:
        return None
    overlap = sources & targets
    if overlap:
        return SearchResult(path=[next(iter(overlap))], cost=0.0, conflicts=[])
    index._load(params)
    src, tgt = index._ids(sources), index._ids(targets)
    c = index._c
    found = index._kernel.search(
        c, src.buffer_info()[0], len(src), tgt.buffer_info()[0], len(tgt),
        net_id, *bounds, -1 if guide_stamp is None else guide_stamp, soft, toll,
    )
    if found != _OFF_LATTICE:
        metrics = get_metrics()
        metrics.count("droute.astar_calls")
        metrics.observe("droute.astar_expansions", c.expansions)
    _check(found, "search")
    if not found:
        return None
    return _build_result(index, found, c.cost)


def _build_result(index: DrouteIndex, length: int, cost: float) -> SearchResult:
    """The kernel's last path, ``length`` ids in ``index.path``, as nodes,
    and the nodes on it another net holds -- the ones a search stored as
    ``-(id + 1)``.  An L try's path has none: its nodes after the source
    are free or the net's own, and the source was charged when the
    connection that reached it was made."""
    ids = index.path[:length]
    conflicts: list[LNode] = []
    if min(ids) < 0:
        conflicts = _nodes((-nid - 1 for nid in ids if nid < 0), index.nx, index.ny)
        ids = array("i", [nid if nid >= 0 else -nid - 1 for nid in ids])
    return SearchResult(
        path=_nodes(ids, index.nx, index.ny), cost=cost, conflicts=conflicts
    )


def _nodes(ids, nx: int, ny: int) -> list[LNode]:
    """Node ids as ``(layer, ix, iy)`` tuples, in order."""
    plane = nx * ny
    return [(nid // plane, nid % nx, nid // nx % ny) for nid in ids]
