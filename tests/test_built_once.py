"""A CR&P iteration builds each thing once — and gets what it got before.

``GlobalRouter._route_segment`` plans every pattern path but builds only
the contenders: it must return the route the build-every-path loop
returns, edge for edge, and the DP value that decides who contends must
sit orders of magnitude inside the band.  ``WindowLegalizer.run`` shares
one window model between the targets of a cell: it must return the
candidates a per-target rebuild returns.
"""

from __future__ import annotations

import pytest

from helpers import add_cell, build_tiny_design, counted, fresh_small
from oracles.groute import route_segment_all_built

from repro.core.config import CrpConfig
from repro.core.crp import CrpFramework
from repro.groute import GlobalRouter
from repro.groute.patterns import pattern_paths_2d
from repro.groute.router import PLAN_BAND
from repro.legalizer import WindowLegalizer
from repro.obs import observe

CASES = {
    "seed3": dict(seed=3),
    "seed42": dict(seed=42),
    "seed99": dict(seed=99),
    "congested": dict(seed=42, utilization=0.9, gcells_per_axis=6),
}


class CheckedRouter(GlobalRouter):
    """Runs the build-every-path oracle beside every ``_route_segment``.

    ``segments`` keeps ``(production, oracle)`` per call and ``paths``
    ``(DP value, built cost, segment band)`` per planned path.
    """

    def __init__(self, design) -> None:
        super().__init__(design)
        self.segments: list[tuple] = []
        self.paths: list[tuple[float, float, float]] = []

    def _route_segment(self, src, dst_xy, dst_layer):
        p3d = self.pattern3d
        p3d.field.ensure()
        plans = [
            plan
            for path in pattern_paths_2d((src[1], src[2]), dst_xy)
            if (plan := p3d.plan(path, src[0], dst_layer)) is not None
        ]
        if plans:
            smallest = min(plan.value for plan in plans)
            band = PLAN_BAND * max(1.0, abs(smallest))
            self.paths += [
                (plan.value, p3d.build(plan).cost, band) for plan in plans
            ]
        expected = route_segment_all_built(self, src, dst_xy, dst_layer)
        result = super()._route_segment(src, dst_xy, dst_layer)
        self.segments.append((result, expected))
        return result


@pytest.fixture(scope="module", params=sorted(CASES))
def checked(request) -> CheckedRouter:
    """Initial routing, RRR and a 3-iteration CR&P, every segment checked."""
    design = fresh_small(**CASES[request.param])
    router = CheckedRouter(design)
    router.route_all()
    CrpFramework(design, router, CrpConfig()).run(iterations=3)
    return router


def test_route_segment_matches_build_every_path(checked):
    assert len(checked.segments) > 100
    for result, expected in checked.segments:
        assert result == expected  # (edges in order, end layer) or None


def test_dp_value_sits_deep_inside_the_band(checked):
    assert any(value != cost for value, cost, _ in checked.paths)
    for value, cost, band in checked.paths:
        assert abs(value - cost) <= band / 1000


def test_path_tallies_are_published():
    design = fresh_small(seed=9)
    router = GlobalRouter(design)
    with observe() as observation:
        router.route_all(rrr_passes=2)
        CrpFramework(design, router, CrpConfig()).run(iterations=2)
    counter = observation.metrics.counter
    assert 0 < counter("groute.paths_built") < counter("groute.paths_planned")
    assert counter("groute.segments_multi_contender") <= counter("groute.paths_built")
    assert 0 < counter("crp.window_models") <= counter("crp.critical_cells")
    assert counter("crp.window_models") <= counter("crp.window_solves")


# ------------------------------------------------------------ window model


class PerTargetLegalizer(WindowLegalizer):
    """Rebuilds the slot vectors for every target: nothing is shared."""

    def _legalize_with_target(self, window, row_order, target_site):
        window.slots = window.apart = None
        return super()._legalize_with_target(window, row_order, target_site)


@pytest.mark.parametrize("seed", [3, 42, 99])
def test_shared_window_model_matches_per_target_rebuild(seed):
    design = fresh_small(seed=seed)
    shared = WindowLegalizer(design, max_targets=100)
    movable = [c.name for c in design.cells.values() if not c.fixed]
    solved = shared_solved = shared_models = 0
    for name in movable:
        reference = PerTargetLegalizer(design, max_targets=100)
        found, shared_counter = counted(shared.run, name)
        expected, counter = counted(reference.run, name)
        assert found == expected
        assert counter("crp.window_models") == counter("crp.window_solves")
        solved += counter("crp.window_solves")
        shared_solved += shared_counter("crp.window_solves")
        shared_models += shared_counter("crp.window_models")
    assert 0 < shared_models <= len(movable)
    assert shared_solved == solved


class OneTarget(WindowLegalizer):
    """Tries exactly the targets it is told to, feasible or not."""

    targets: list[tuple[int, int]] = []

    def _enumerate_targets(self, window):
        return self.targets


def test_infeasible_pinned_slot_yields_no_candidate(tech45):
    design = build_tiny_design(tech45, num_rows=1, sites_per_row=14)
    row = design.rows[0]
    add_cell(design, "a", "INV_X1", 0, 0)  # two sites wide
    add_cell(design, "n", "INV_X1", 5, 0)
    add_cell(design, "wall", "INV_X1", 7, 0).fixed = True
    add_cell(design, "m", "INV_X1", 12, 0)
    legalizer = OneTarget(design, n_sites=14, n_rows=1)
    # Onto ``n`` and the wall; onto ``m`` and off the end of the window.
    legalizer.targets = [(0, 6), (0, 13)]
    found, counter = counted(legalizer.run, "a")
    assert found == []
    assert counter("crp.window_solves") == counter("crp.window_models") == 0
    # The slot of ``n`` itself is free of obstacles: ``n`` makes room.
    legalizer.targets = [(0, 5)]
    (candidate,), counter = counted(legalizer.run, "a")
    assert candidate.position[0] == row.site_x(5) and "n" in candidate.conflict_moves
    assert counter("crp.window_solves") == counter("crp.window_models") == 1


def test_neighbour_without_option_yields_no_candidate(tech45):
    design = build_tiny_design(tech45, num_rows=1, sites_per_row=10)
    add_cell(design, "a", "INV_X1", 0, 0)
    add_cell(design, "n", "NAND2_X1", 4, 0)  # three sites wide
    # A fixed cell on the last site of ``n`` (an illegal start) carves its
    # own slot, and no other three free sites are left in the row.
    for site in (2, 6, 8):
        add_cell(design, f"wall{site}", "INV_X1", site, 0).fixed = True
    legalizer = OneTarget(design, n_sites=10, n_rows=1)
    legalizer.targets = [(0, 4)]  # free for ``a``, on top of ``n``
    found, counter = counted(legalizer.run, "a")
    assert found == []
    assert counter("crp.window_models") == 1
    assert counter("crp.window_solves") == 0
