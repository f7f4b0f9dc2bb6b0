"""Integration tests: the full GR -> movement -> DR flow."""

import pytest

from repro.flow import run_flow, runtime_breakdown_pct
from repro.flow.runtime import FIG3_STAGES
from repro.core import CrpConfig

from helpers import fresh_small


def test_flow_baseline():
    result = run_flow(fresh_small(), mode="baseline")
    assert result.quality is not None
    assert result.quality.wirelength_dbu > 0
    assert result.quality.vias > 0
    assert result.legal
    assert set(result.runtime) == {"GR", "DR"}


def test_flow_crp_k2():
    result = run_flow(
        fresh_small(),
        mode="crp",
        crp_iterations=2,
        config=CrpConfig(seed=1),
    )
    assert result.crp is not None
    assert len(result.crp.iterations) == 2
    assert result.legal
    assert "CRP" in result.runtime
    pct = runtime_breakdown_pct(result)
    assert set(pct) == set(FIG3_STAGES)
    assert sum(pct.values()) == pytest.approx(100.0)
    assert pct["ECC"] > 0


def test_flow_fontana():
    result = run_flow(fresh_small(), mode="fontana")
    assert result.fontana is not None
    assert not result.failed
    assert result.legal
    assert "BASELINE" in result.runtime


def test_flow_skip_detailed():
    result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    assert result.quality is None
    assert result.gr_wirelength_dbu > 0
    assert "DR" not in result.runtime


def test_flow_unknown_mode():
    with pytest.raises(ValueError):
        run_flow(fresh_small(), mode="magic")


def test_flow_crp_improves_or_matches_baseline_gr():
    """On the same design, CR&P must not worsen the GR-level metrics."""
    base = run_flow(fresh_small(seed=33), mode="baseline", skip_detailed=True)
    crp = run_flow(
        fresh_small(seed=33),
        mode="crp",
        crp_iterations=2,
        skip_detailed=True,
        config=CrpConfig(seed=1),
    )
    base_score = 0.5 * base.gr_wirelength_dbu / 200 + 2.0 * base.gr_vias
    crp_score = 0.5 * crp.gr_wirelength_dbu / 200 + 2.0 * crp.gr_vias
    assert crp_score <= base_score * 1.02


@pytest.fixture(scope="module")
def k1_flow_on_test1():
    """The full GR -> CR&P(k=1) -> DR flow on ``ispd18_test1``."""
    from repro.benchgen import make_design

    return run_flow(make_design("ispd18_test1"), mode="crp", crp_iterations=1)


def test_flow_quality_pinned_on_ispd18_test1(k1_flow_on_test1):
    """Full-flow k=1 results are machine-independent constants.

    Recorded at the commit before the scalar / dict / uncached reference
    paths left ``src`` (what the deleted ``droute`` CI job compared with
    its committed quality block): any drift is a behaviour change.
    """
    result = k1_flow_on_test1
    assert not result.failed and result.legal
    assert (result.gr_wirelength_dbu, result.gr_vias) == (219620, 186)
    assert result.quality.wirelength_dbu == 242200
    assert result.quality.vias == 201
    assert result.quality.drvs == 0
    assert result.quality.drv_breakdown == {}


#: Every counter of that flow but ``cost_field.*``, recorded at
#: ``8d16b24`` (``test_cost_field.py`` holds those to the events they
#: count).  A count that stays zero creates no key, so a pinned zero is
#: read with ``.get(name, 0)``.
K1_TEST1_COUNTERS = {
    "crp.candidates": 280,
    "crp.cells_moved": 22,
    "crp.critical_cells": 40,
    "crp.ecc_batch_paths": 587,
    "crp.ecc_batches": 1,
    "crp.ecc_cache_hits": 722,
    "crp.ecc_cache_misses": 354,
    "crp.iterations": 1,
    "crp.rerouted_nets": 27,
    "crp.select_components": 2,
    "crp.select_pairs": 3774,
    "crp.select_tied_cells": 28,
    "crp.window_models": 36,
    "crp.window_runs": 40,
    "crp.window_solves": 142,
    "crp.window_tie_breaks": 34,
    "droute.astar_calls": 24,
    "droute.drvs": 0,
    "droute.hard_skipped": 0,
    "droute.nets_routed": 30,
    "droute.opens": 0,
    "droute.rrr_rounds": 0,
    "droute.soft_tolled": 0,
    "groute.edges_committed": 1953,
    "groute.edges_ripped": 1538,
    "groute.maze_calls": 136,
    "groute.nets_routed": 57,
    "groute.paths_built": 135,
    "groute.paths_planned": 319,
    "groute.ripup_nets": 96,
    "groute.rrr_passes": 3,
    "groute.rrr_victims": 69,
    "groute.segments_multi_contender": 7,
    "ilp.solves": 1,
    "ilp.status.optimal": 1,
}


def test_counters_pinned_on_ispd18_test1(k1_flow_on_test1):
    """Every count of the same flow, and the detailed router's per-search
    expansions: a change that moves the search order (a seed, a tie, a
    guide's shape) moves these before it moves the quality above, and a
    count that goes missing or appears unpinned fails here."""
    metrics = k1_flow_on_test1.metrics
    counters = metrics["counters"]
    assert {
        name: counters.get(name, 0) for name in K1_TEST1_COUNTERS
    } == K1_TEST1_COUNTERS
    unpinned = {
        name for name in counters if not name.startswith("cost_field.")
    } - set(K1_TEST1_COUNTERS)
    assert not unpinned
    assert metrics["histograms"]["droute.astar_expansions"] == {
        "count": 24, "sum": 6078, "min": 12, "max": 1259, "mean": 253.25,
        "p50": 249, "p95": 553,
    }


def test_flows_that_skip_detailed_routing_never_build_the_kernel(monkeypatch):
    """Only the first ``DrouteIndex`` builds and loads the C kernel: with the
    loader broken, a CR&P flow that stops before DR still succeeds, and the
    same flow with DR fails in the DR stage with the loader's error."""
    from repro.benchgen import make_design
    from repro.droute import indexed

    def broken():
        raise RuntimeError("no compiler here")

    monkeypatch.setattr(indexed, "load_kernel", broken)
    skipped = run_flow(
        make_design("ispd18_test1"), mode="crp", crp_iterations=1,
        skip_detailed=True,
    )
    assert not skipped.failed and skipped.legal
    routed = run_flow(make_design("ispd18_test1"), mode="crp", crp_iterations=1)
    assert routed.failed
    assert routed.failure.stage == "DR"
    assert (routed.failure.error_type, routed.failure.message) == (
        "RuntimeError", "no compiler here"
    )


def test_crp_digests_pinned_on_ispd18_test1():
    """Byte-identity pin for output-identical (perf, refactor) PRs.

    Both digests of a 3-iteration CR&P without detailed routing, recorded
    at ``4719563`` before the window model and the plan/build split
    touched ``src``.  A PR that means to move routes or placements
    re-records them and says so; any other drift is a behaviour change.
    """
    from repro.benchgen import make_design

    result = run_flow(
        make_design("ispd18_test1"), mode="crp", crp_iterations=3,
        skip_detailed=True,
    )
    assert not result.failed and result.legal
    assert result.routes_digest == (
        "389a01df3745500230f1a737775f736fd93f74ebd0b4b6845499a4b56b415d47"
    )
    assert result.placement_digest == (
        "48bd12dbe2d4daffb89f68c9a8efa4dffa286d18afb394fa5a5473e43777ad7e"
    )


def test_fontana_digests_pinned_on_ispd18_test1():
    """The same pin for [18]: one selection ILP that moves 10 cells,
    recorded at ``9857cf5`` (the same under ``PYTHONHASHSEED`` 0 and 123),
    before its model moved onto the shared 0/1 choice model."""
    from repro.benchgen import make_design

    result = run_flow(make_design("ispd18_test1"), mode="fontana", skip_detailed=True)
    assert not result.failed and result.legal
    assert result.fontana.moved_cells == 10
    counters = result.metrics["counters"]
    assert counters["ilp.solves"] == 1
    assert result.routes_digest == (
        "239fadf2cccad4ebfe97fbc58c9ff0730f41ffed854f51ef44ad86b72c121d07"
    )
    assert result.placement_digest == (
        "2113d4f96260239df6c8b40d34ed72bb39d94574198d6bec0204c658e96d0c7c"
    )
    # [18]'s windows report their tallies.  With max_cells=1 no target
    # displaces a neighbour, so every window is legal without a solve.
    assert counters["crp.window_runs"] > 0
    assert counters.get("crp.window_solves", 0) == 0
    assert counters.get("crp.window_models", 0) == 0


#: ``full_k1_test5``'s detailed routing, the benchmark's DR workload:
#: recorded at ``f4b508f``, before the connection ladder, the guide stamp
#: and the min-area patch moved into ``droute/_kernel.c``
K1_TEST5_DROUTE = {
    "droute.astar_calls": 1336,
    "droute.nets_routed": 881,
    "droute.hard_skipped": 90,
    "droute.soft_tolled": 10,
    "droute.history_bumps": 195,
    "droute.ripped_nets": 161,
    "droute.rrr_rounds": 2,
    "droute.opens": 0,
}


def test_detailed_routing_pinned_on_ispd18_test5():
    """Quality, every route and violation (hashed), the ladder's counters
    and the per-search expansions of the k=1 flow on ``ispd18_test5``."""
    import hashlib
    from unittest.mock import patch

    from repro.benchgen import make_design
    from repro.droute import DetailedRouter

    routed = []
    route_all = DetailedRouter.route_all

    def keep(self, guides):
        routed.append(route_all(self, guides))
        return routed[-1]

    with patch.object(DetailedRouter, "route_all", keep):
        flow = run_flow(make_design("ispd18_test5"), mode="crp", crp_iterations=1)
    assert not flow.failed and flow.legal
    (result,) = routed
    assert (result.wirelength_dbu, result.vias) == (8053200, 6170)
    assert result.drv_counts() == {"short": 2, "min_area": 4}
    text = repr((
        sorted(result.paths.items()),
        sorted(
            (v.kind.value, v.layer, v.net_a, v.net_b, v.node)
            for v in result.violations
        ),
    ))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f251d0a3109d891592cc3e34885199d6b0d2ba164615498ccb94c2abc32ec5a2"
    )
    counters = flow.metrics["counters"]
    assert {
        name: counters.get(name, 0) for name in K1_TEST5_DROUTE
    } == K1_TEST5_DROUTE
    assert flow.metrics["histograms"]["droute.astar_expansions"] == {
        "count": 1336, "sum": 872242.0, "min": 2, "max": 11140,
        "mean": 872242 / 1336, "p50": 370, "p95": 2048,
    }
