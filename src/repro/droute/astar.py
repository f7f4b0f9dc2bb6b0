"""Parameters and result of the A* search on the track lattice.

The search connects a grown net component to the next terminal, after
the clean L-shaped tries of the same connection have failed.  The
ladder asks twice.  First *hard*, inside the net's guide region: nodes
held by another net and nodes off the guides are impassable.  If that
fails, *soft* and with no guide at all, in the same window: every free
node costs what it costs, and a node held by another net may be crossed
at ``conflict_penalty`` -- that pass is what converts an unroutable
situation into a short DRV instead of an open net, mirroring how
detailed routers trade opens for shorts.

Before either search a bounded backward look from the targets
(:func:`repro.droute.indexed.pocket_closed`) asks whether any
penalty-free path can exist.  When it proves there is none, the hard
search is not run (counted as ``droute.hard_skipped``) and the soft
search runs with the crossing it must make already in its estimate
(``droute.soft_tolled``), so that it heads for the cheapest crossing
instead of first flooding everything that is free.

The whole ladder -- tries, looks and searches -- is one call of the C
kernel ``droute/_kernel.c`` per connection
(:meth:`repro.droute.indexed.DrouteIndex.connect`); the search alone is
:func:`repro.droute.indexed.astar_connect_indexed`.  The dict-of-tuples
A* in ``tests/oracles/droute.py`` is its parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.droute.lattice import LNode


@dataclass(slots=True)
class SearchParams:
    """Cost constants of the detailed-routing search (DBU scale)."""

    via_cost: int = 800
    conflict_penalty: int = 20000
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
