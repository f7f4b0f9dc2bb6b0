"""Full-recompute reference for the incremental CR&P kernel.

Both references still run in production outside CR&P — the Fontana
baseline prices candidates with ``estimate_candidate_cost(cache=None)``
and a router without a ``NetCostCache`` answers ``net_cost`` through
``_net_cost_fresh`` — so nothing moved here; this module only routes a
:class:`~repro.core.crp.CrpFramework` through them.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.core.crp as crp_module
from repro.core.estimate import estimate_candidate_cost


class FreshNetCosts:
    """Stands in for ``NetCostCache``: every query is a fresh rescan."""

    def __init__(self, router) -> None:
        self.router = router

    def note_commit(self, name, edges) -> None:
        pass

    def note_rip(self, name, edges) -> None:
        pass

    def note_all(self) -> None:
        pass

    def net_cost(self, name: str) -> float:
        return self.router._net_cost_fresh(name)

    def publish_metrics(self) -> None:
        pass


def _estimate_uncached(design, router, candidate, cache=None) -> float:
    return estimate_candidate_cost(design, router, candidate)


@contextmanager
def full_recompute(framework):
    """Run ``framework`` on the references: no cost cache, no ECC memo.

    The ECC seam is the module binding ``repro.core.crp`` calls through
    (the same one ``bench/tracing.py`` rebinds); it is restored on exit.
    """
    framework.router.cost_cache = FreshNetCosts(framework.router)
    saved = crp_module.estimate_candidate_cost
    crp_module.estimate_candidate_cost = _estimate_uncached
    try:
        yield framework
    finally:
        crp_module.estimate_candidate_cost = saved
