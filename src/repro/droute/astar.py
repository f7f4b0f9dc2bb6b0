"""Parameters, result and counters of the A* search on the track lattice.

The search connects a grown net component to the next terminal inside
the net's guide region.  Two modes: *hard* (conflicting nodes are
impassable) and *soft* (conflicts and off-guide excursions are allowed
with a heavy penalty) — the soft pass is what converts an unroutable
situation into a short DRV instead of an open net, mirroring how
detailed routers trade opens for shorts.

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

    __slots__ = ("calls", "expansions", "skipped")

    def __init__(self) -> None:
        self.calls = 0
        self.expansions: list[int] = []
        #: hard searches answered by the pocket look instead of being run
        self.skipped = 0

    def record(self, expansions: int) -> None:
        self.calls += 1
        self.expansions.append(expansions)

    def flush(self) -> None:
        metrics = get_metrics()
        if self.skipped:
            metrics.count("droute.hard_skipped", self.skipped)
            self.skipped = 0
        if not self.calls:
            return
        metrics.count("droute.astar_calls", self.calls)
        metrics.observe_many("droute.astar_expansions", self.expansions)
        self.calls = 0
        self.expansions = []
