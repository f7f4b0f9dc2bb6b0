"""Parameters, result and counters of the A* search on the track lattice.

The search connects a grown net component to the next terminal.  The
router asks twice.  First *hard*, inside the net's guide region: nodes
held by another net and nodes off the guides are impassable.  If that
fails, *soft* and with no guide at all: the window is the terminals'
box plus a fixed slack, every free node in it costs what it costs, and
a node held by another net may be crossed at ``conflict_penalty`` --
that pass is what converts an unroutable situation into a short DRV
instead of an open net, mirroring how detailed routers trade opens for
shorts.  (The kernel also takes soft *with* a guide, where an off-guide
step costs ``off_guide_penalty``; no caller in ``src`` asks for it, the
parity tests do.)

Before either search a bounded backward look from the targets
(:func:`repro.droute.indexed.pocket_closed`) asks whether any
penalty-free path can exist.  When it proves there is none, the hard
search is not run (``SearchStats.skipped``) and the soft search runs
with the crossing it must make already in its estimate
(``SearchStats.tolled``), so that it heads for the cheapest crossing
instead of first flooding everything that is free.

The search itself is :func:`repro.droute.indexed.astar_connect_indexed`;
the dict-of-tuples A* it replaced is the parity reference in
``tests/oracles/droute.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.droute.lattice import LNode
from repro.obs import get_metrics


@dataclass(slots=True)
class SearchParams:
    """Cost constants of the detailed-routing search (DBU scale)."""

    via_cost: int = 800
    conflict_penalty: int = 20000
    off_guide_penalty: int = 2000
    #: wrong-way (non-preferred-direction) step cost multiplier
    jog_factor: float = 2.5
    max_expansions: int = 60000
    #: soft-pass expansion budget multiplier (opens are worst-case DRVs)
    soft_budget_factor: float = 3.0
    #: A* heuristic inflation; >1 trades a little optimality for speed
    heuristic_weight: float = 1.15


@dataclass(slots=True)
class SearchResult:
    """A found path and the conflicts it incurred."""

    path: list[LNode]
    cost: float
    conflicts: list[LNode]


class SearchStats:
    """Local accumulator for per-search counters.

    The router hands one of these to every search of a ``route_all``
    and flushes it once at the end (``count`` + ``observe_many``), so
    the metrics registry is hit twice per routing pass instead of once
    per A* invocation.
    """

    __slots__ = ("calls", "expansions", "skipped", "tolled")

    def __init__(self) -> None:
        self.calls = 0
        self.expansions: list[int] = []
        #: hard searches answered by the pocket look instead of being run
        self.skipped = 0
        #: soft searches run with the crossing the look proved in their
        #: estimate
        self.tolled = 0

    def record(self, expansions: int) -> None:
        self.calls += 1
        self.expansions.append(expansions)

    def flush(self) -> None:
        metrics = get_metrics()
        if self.skipped:
            metrics.count("droute.hard_skipped", self.skipped)
            self.skipped = 0
        if self.tolled:
            metrics.count("droute.soft_tolled", self.tolled)
            self.tolled = 0
        if not self.calls:
            return
        metrics.count("droute.astar_calls", self.calls)
        metrics.observe_many("droute.astar_expansions", self.expansions)
        self.calls = 0
        self.expansions = []
