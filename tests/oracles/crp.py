"""Full-recompute reference for the incremental CR&P kernel.

``estimate_candidate_reference`` is the scalar Algorithm 3 pricer that
``src`` ran before CR&P and [18] both priced through the batched
``EccCache``: per net, the terminals with the moved cells' pins
re-derived, one FLUTE tree, and per tree edge the strict-``<`` scan of
``PatternRouter3D.plan(...).value`` over ``pattern_paths_2d``, summed in
edge order.  It moved here as the reference ``EccCache.net_cost`` and
``price_segments`` are pinned to, bit for bit.  ``_net_cost_fresh`` is
still the ``NetCostCache``'s own re-price in production.
:func:`full_recompute` routes a :class:`~repro.core.crp.CrpFramework`
through both.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.core.crp as crp_module
from repro.core.estimate import candidate_scope, overridden_node
from repro.flute import build_rsmt
from repro.geom import Point
from repro.groute.pattern3d import PatternRouter3D
from repro.groute.patterns import pattern_paths_2d


class FreshNetCosts:
    """Stands in for ``NetCostCache``: every query is a fresh rescan."""

    def __init__(self, router) -> None:
        self.router = router

    def note_commit(self, name, edges, rows) -> None:
        pass

    def note_rip(self, name, edges, rows) -> None:
        pass

    def note_all(self) -> None:
        pass

    def net_cost(self, name: str) -> float:
        return self.router._net_cost_fresh(name)


def price_segment_reference(p3d: PatternRouter3D, key) -> float | None:
    """Best DP value over the pattern paths of one segment key
    ``(ax, ay, bx, by, src_layer, dst_layer)``, first in path order on
    ties; ``None`` when no path has a plan."""
    ax, ay, bx, by, src_layer, dst_layer = key
    best = None
    for path in pattern_paths_2d((ax, ay), (bx, by)):
        plan = p3d.plan(path, src_layer, dst_layer)
        if plan is None:
            continue
        if best is None or plan.value < best:
            best = plan.value
    return best


def terminals_with_overrides(design, router, net, overrides) -> list:
    """Distinct terminal nodes with some cells virtually relocated."""
    nodes = []
    seen = set()
    for pin in net.pins:
        if pin.cell is not None and pin.cell in overrides:
            node = overridden_node(design, router, pin, overrides[pin.cell])
        else:
            gx, gy = router.grid.gcell_of(design.pin_point(pin))
            node = (design.pin_layer(pin), gx, gy)
        if node not in seen:
            seen.add(node)
            nodes.append(node)
    return nodes


def estimate_net_reference(design, router, p3d, net, overrides) -> float:
    """Virtual FLUTE + 3D-pattern-route cost of one net on ``p3d``'s field."""
    terminals = terminals_with_overrides(design, router, net, overrides)
    if len(terminals) < 2:
        return 0.0
    tree = build_rsmt([Point(t[1], t[2]) for t in terminals])
    layer_at = {}
    for layer, gx, gy in terminals:
        layer_at.setdefault((gx, gy), layer)
    total = 0.0
    for a, b in tree.edges:
        pa, pb = tree.points[a], tree.points[b]
        src_layer = layer_at.get((pa.x, pa.y), router.graph.min_wire_layer)
        key = (pa.x, pa.y, pb.x, pb.y, src_layer, layer_at.get((pb.x, pb.y)))
        best = price_segment_reference(p3d, key)
        if best is not None:
            total += best
    return total


def estimate_candidate_reference(design, router, candidate, field) -> float:
    """``estimate_candidate_cost`` priced by the scalar pricer on ``field``."""
    p3d = PatternRouter3D(router.graph, field, router.pattern3d.min_layer)
    field.ensure()
    overrides, nets = candidate_scope(design, candidate)
    total = 0.0
    for net in nets:
        total += estimate_net_reference(design, router, p3d, net, overrides)
    return total


@contextmanager
def full_recompute(framework):
    """Run ``framework`` on the references: no cost cache, no ECC memo.

    The ECC seam is the module binding ``repro.core.crp`` calls through
    (the same one ``bench/tracing.py`` rebinds); it is restored on exit.
    """
    framework.router.cost_cache = FreshNetCosts(framework.router)

    def estimate_uncached(design, router, candidate, cache) -> float:
        return estimate_candidate_reference(
            design, router, candidate, framework._estimate_field
        )

    saved = crp_module.estimate_candidate_cost
    crp_module.estimate_candidate_cost = estimate_uncached
    try:
        yield framework
    finally:
        crp_module.estimate_candidate_cost = saved
