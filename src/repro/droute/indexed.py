"""Flat-array detailed-routing state and its C search kernel.

Addressing scheme: every lattice node ``(layer, ix, iy)`` maps to a flat
node id ``nid = (layer * ny + iy) * nx + ix``; net names are interned to
small ints (``FREE = 0``, ``BLOCKED_ID = 1``, nets from 2).  All per-node
state -- ownership, wire occupancy, negotiated ``history`` cost,
``g_score``/``came_from``, target and guide membership, the passability
cache ``gate`` -- lives in typed ``array.array`` buffers indexed by nid:
``owner``, ``occupancy`` and ``came_from`` as ``i``, ``history`` and
``g_score`` as ``d``, the stamps ``target_epoch``, ``guide_epoch`` and
``gate`` as ``q`` (64 bits, so they never wrap).

The A* search and the pocket look run in ``_kernel.c``, which reads and
writes those buffers in place through ``ctypes``.  :func:`load_kernel`
compiles it with the system ``cc`` on the first :class:`DrouteIndex` and
caches the shared object in ``__pycache__``; there is no Python copy of
either loop and no fallback (DESIGN.md, "One loop, one relax, one
push — in C").  Python converts the terminals to node ids, keeps the stamp
counters, and turns the path ids the kernel hands back into a
:class:`SearchResult`.

Per-search state costs O(expanded), not O(lattice): ``g_score`` is
``inf`` and ``came_from`` ``-1`` between searches, and the kernel
restores every slot it wrote on every exit.  Target membership is
epoch-stamped (bump a counter, compare stamps), and guide membership
uses a per-net ``guide_stamp`` filled by row-contiguous slice
assignment.

Parity contract: the search is expansion-order-identical to the dict
oracle in ``tests/oracles/droute.py`` (``astar_connect`` and
``pocket_look``) -- same seed order, same (f, insertion order) queue
order as the oracle's (f, tie) heap, same float expressions for the
heuristic and step costs, same hard/soft conflict semantics, same window
rule -- so paths, costs, conflict lists and expansion counts are
byte-identical; the parity suite installs the oracle through
:meth:`DetailedRouter.begin_session`.

:class:`DrouteIndex` is also the router's *session state*: the nine
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
from collections import defaultdict
from pathlib import Path

from repro.droute.astar import SearchParams, SearchResult
from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.groute import GuideRect
from repro.obs import get_metrics

#: owner/occupancy ids; net ids are interned starting at 2
FREE = 0
BLOCKED_ID = 1

_INF = float("inf")

#: stride of ``DrouteIndex.gate_stamp``.  Every search and every pocket
#: look takes a fresh block of this many codes, so no mark of an earlier
#: block compares ``>=`` a later block's base; wide enough for the
#: search's five codes (``gstamp + 0`` free, ``gstamp + 1`` held by
#: another net, ``gstamp + 2`` a wall, ``gstamp + 3 + 0..1`` the same
#: two on a node the look before a tolled search had marked) and the
#: look's two
GATE_BLOCK = 8

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
        cost constants of the next call and what the last search found."""

        _fields_ = [
            (name, c_void_p) for name in (
                "owner", "occupancy", "came_from", "g_score",
                "target_epoch", "guide_epoch", "gate", "horizontal",
                "history",
            )
        ] + [
            (name, c_int32) for name in ("nx", "ny", "num_layers", "min_wire_layer")
        ] + [
            ("pitch", c_int64), ("via_cost", c_double), ("jog_factor", c_double),
            ("conflict_penalty", c_double), ("cost", c_double),
            ("expansions", c_int64),
        ]

    # (index, sources, n, targets, n, net, ix0, iy0, ix1, iy1, guide stamp)
    common = [ctypes.POINTER(Index), c_void_p, c_int32, c_void_p, c_int32]
    common += [c_int32] * 5 + [c_int64]
    lib.drk_search.argtypes = common + [
        c_int64, c_int64, c_int64, c_double, c_double, c_int32, c_int64, c_void_p,
    ]
    lib.drk_search.restype = c_int64
    lib.drk_pocket.argtypes = common + [c_int64, c_int64]
    lib.drk_pocket.restype = c_int32
    return types.SimpleNamespace(
        search=lib.drk_search, pocket=lib.drk_pocket, Index=Index
    )


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
        "names", "ids", "owner", "occupancy", "history",
        "g_score", "came_from", "target_epoch", "guide_epoch",
        "gate", "epoch", "guide_stamp", "gate_stamp",
        "reservations", "params", "margin",
        "path", "_kernel", "_horizontal", "_c",
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
        #: tracks a guide rect grows by on every side
        self.margin = guide_margin
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
        #: lazy per-search passability cache, five codes over the live
        #: stamp (see :data:`GATE_BLOCK`); anything older than the live
        #: stamp means "not classified yet".  :func:`pocket_closed`
        #: borrows it under a stamp block of its own, ``gate_stamp + {0:
        #: visited, 1: source}``; both advance ``gate_stamp`` by
        #: :data:`GATE_BLOCK`
        self.gate = array("q", bytes(8 * n))
        #: the node ids of the last path found, source first
        self.path = array("i", bytes(4 * n))
        self.epoch = 0
        self.guide_stamp = 0
        self.gate_stamp = 0

        self._horizontal = array(
            "i", [layer.is_horizontal for layer in lattice.tech.layers]
        )
        # No buffer is ever resized, so the addresses stay valid.
        self._c = kernel.Index(
            *(
                buf.buffer_info()[0] for buf in (
                    self.owner, self.occupancy, self.came_from, self.g_score,
                    self.target_epoch, self.guide_epoch, self.gate,
                    self._horizontal, self.history,
                )
            ),
            nx, ny, num_layers, lattice.min_wire_layer, lattice.pitch,
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
                fill = array("q", [stamp]) * width
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

    def connect(self, sources, targets, net_name, bounds, guide, soft):
        net_id = self.intern(net_name)
        params = self.params
        toll = 0.0
        if pocket_closed(self, sources, targets, net_id, bounds, guide):
            # The targets sit in a pocket sealed against penalty-free
            # steps: a hard search can only come back ``None`` -- say so
            # without running it -- and a soft one must cross a node held
            # by another net before it gets in.
            if not soft:
                get_metrics().count("droute.hard_skipped")
                return None
            get_metrics().count("droute.soft_tolled")
            toll = float(params.conflict_penalty)
        return astar_connect_indexed(
            self, sources, targets, net_id, bounds, guide, params, soft, toll
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
    src, tgt = _kernel_terminals(index, sources, targets, bounds)
    seen = index.gate_stamp + GATE_BLOCK
    index.gate_stamp = seen
    closed = index._kernel.pocket(
        index._c, src.buffer_info()[0], len(src),
        tgt.buffer_info()[0], len(tgt), net_id, *bounds,
        -1 if guide_stamp is None else guide_stamp, seen, POCKET_BUDGET,
    )
    if closed < 0:
        raise MemoryError("detailed-routing pocket look")
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
        node = next(iter(overlap))
        return SearchResult(path=[node], cost=0.0, conflicts=[])

    index.epoch += 1
    # Under a toll the closed look's block is the one just below ours;
    # without one nothing older than ``gstamp`` counts as inside.
    look_base = index.gate_stamp if toll else index.gate_stamp + GATE_BLOCK
    gstamp = index.gate_stamp + GATE_BLOCK
    index.gate_stamp = gstamp
    max_expansions = params.max_expansions
    if soft:
        max_expansions = int(max_expansions * params.soft_budget_factor)
    src, tgt = _kernel_terminals(index, sources, targets, bounds)
    c = index._c
    c.via_cost = params.via_cost
    c.jog_factor = params.jog_factor
    c.conflict_penalty = params.conflict_penalty
    found = index._kernel.search(
        c, src.buffer_info()[0], len(src),
        tgt.buffer_info()[0], len(tgt), net_id, *bounds,
        -1 if guide_stamp is None else guide_stamp, index.epoch, gstamp,
        look_base, 1.0 if toll else params.heuristic_weight, toll, soft,
        max_expansions, index.path.buffer_info()[0],
    )
    metrics = get_metrics()
    metrics.count("droute.astar_calls")
    metrics.observe("droute.astar_expansions", c.expansions)
    if found < 0:
        raise MemoryError("detailed-routing search")
    if not found:
        return None
    return _build_result(index, found, c.cost, net_id)


def _kernel_terminals(
    index: DrouteIndex,
    sources: set[LNode],
    targets: set[LNode],
    bounds: tuple[int, int, int, int],
) -> tuple[array, array]:
    """``sources`` and ``targets`` as node-id buffers, in their iteration
    order.  The kernel indexes its buffers unchecked, and a step it takes
    stays on the lattice only while ``bounds`` do, so both are checked
    here: ``IndexError`` for anything off the lattice."""
    nx, ny = index.nx, index.ny
    src = array("i", [(layer * ny + iy) * nx + ix for layer, ix, iy in sources])
    tgt = array("i", [(layer * ny + iy) * nx + ix for layer, ix, iy in targets])
    ix0, iy0, ix1, iy1 = bounds
    ids = src + tgt
    if not (
        0 <= ix0 and ix1 < nx and 0 <= iy0 and iy1 < ny
        and 0 <= min(ids, default=0) and max(ids, default=0) < index.num_nodes
    ):
        raise IndexError(f"search off the {nx} x {ny} lattice: {bounds}")
    return src, tgt


def _build_result(
    index: DrouteIndex, length: int, cost: float, net_id: int
) -> SearchResult:
    """The kernel's last path, ``length`` ids in ``index.path``, as nodes
    and the nodes on it another net holds."""
    owner = index.owner
    occupancy = index.occupancy
    nx, ny = index.nx, index.ny
    path: list[LNode] = []
    conflicts: list[LNode] = []
    for pid in index.path[:length]:
        ix = pid % nx
        rest = pid // nx
        node = (rest // ny, ix, rest % ny)
        path.append(node)
        holder = owner[pid] or occupancy[pid]
        if holder > 1 and holder != net_id:  # not FREE/BLOCKED/self
            conflicts.append(node)
    return SearchResult(path=path, cost=cost, conflicts=conflicts)
