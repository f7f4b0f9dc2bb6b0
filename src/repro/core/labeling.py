"""Step 1: Label Critical Cells (Algorithm 1).

Cells are sorted by the Eq. 10 cost of their nets' current global
routes, read from one :meth:`GlobalRouter.net_costs` snapshot, so cells
sitting on expensive (congested, via-heavy) routes come first.  A cell
is skipped when a connected cell is already critical (moving both
endpoints of a net in one iteration would invalidate the cost
estimates).  Cells that were selected or moved in earlier
iterations are damped by the simulated-annealing acceptance test
``exp(-(hist_c + hist_m) / T) > random()``, which keeps the framework
from hammering the same congested neighbourhood every iteration.
"""

from __future__ import annotations

import math
import random

from repro.db import Design
from repro.core.config import CrpConfig

#: the paper's ``gamma``: fraction of the movable cells eligible for
#: movement per iteration
GAMMA = 0.6
#: the paper's annealing temperature ``T``: re-selecting an already
#: critical cell has probability ``exp(-1)`` ~ 36 %, an already moved one
#: ``exp(-2)`` ~ 13 %
TEMPERATURE = 1.0
#: cap on critical cells per iteration (keeps runtime bounded)
MAX_CRITICAL_CELLS = 200


def label_critical_cells(
    design: Design,
    net_costs: dict[str, float],
    config: CrpConfig,
    rng: random.Random,
) -> list[str]:
    """Select this iteration's critical cells (Algorithm 1); a cell's
    cost is the sum of its nets' ``net_costs``."""
    movable = [c.name for c in design.cells.values() if not c.fixed]
    if config.prioritize:
        cost_of = {
            name: sum(net_costs[net.name] for net in design.nets_of_cell(name))
            for name in movable
        }
        movable.sort(key=lambda name: (-cost_of[name], name))
    limit = min(MAX_CRITICAL_CELLS, int(GAMMA * len(movable)))

    critical: list[str] = []
    critical_set: set[str] = set()
    for name in movable:
        if len(critical) >= limit:
            break
        connected = design.connected_cells(name)
        if connected & critical_set:
            continue
        hist_c = 1 if name in design.critical_history else 0
        hist_m = 1 if name in design.moved_history else 0
        acceptance = math.exp(-(hist_c + hist_m) / TEMPERATURE)
        if acceptance > rng.random():
            critical.append(name)
            critical_set.add(name)
    design.critical_history.update(critical)
    return critical
