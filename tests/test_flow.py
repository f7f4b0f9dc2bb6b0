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
        config=CrpConfig(seed=1, max_targets=3),
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


def test_flow_fontana_budget_failure():
    result = run_flow(fresh_small(), mode="fontana", baseline_budget_s=0.0)
    assert result.failed
    assert result.quality is None
    assert "FAILED" in result.summary()


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


def test_flow_quality_pinned_on_ispd18_test1():
    """Full-flow k=1 results are machine-independent constants.

    Recorded at the commit before the scalar / dict / uncached reference
    paths left ``src`` (what the deleted ``droute`` CI job compared with
    its committed quality block): any drift is a behaviour change.
    """
    from repro.benchgen import make_design

    result = run_flow(make_design("ispd18_test1"), mode="crp", crp_iterations=1)
    assert not result.failed and result.legal
    assert (result.gr_wirelength_dbu, result.gr_vias) == (219620, 186)
    assert result.quality.wirelength_dbu == 242200
    assert result.quality.vias == 201
    assert result.quality.drvs == 0
    assert result.quality.drv_breakdown == {}


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
