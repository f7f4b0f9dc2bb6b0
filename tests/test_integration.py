"""End-to-end integration invariants on a mid-size generated design."""

import pytest

from repro.db import check_legality
from repro.lefdef import parse_def, parse_lef, write_def, write_lef
from repro.flow import run_flow
from repro.core import CrpConfig

from helpers import fresh_small


@pytest.fixture(scope="module")
def crp_flow_result():
    design = fresh_small(seed=77, num_cells=120, num_nets=110)
    result = run_flow(
        design,
        mode="crp",
        crp_iterations=2,
        config=CrpConfig(seed=5),
    )
    return design, result


def test_flow_leaves_design_legal(crp_flow_result):
    design, result = crp_flow_result
    assert result.legal
    assert check_legality(design).is_legal


def test_flow_routes_every_net(crp_flow_result):
    design, result = crp_flow_result
    assert result.quality is not None
    assert result.quality.vias > 0
    # No open nets: every terminal was reached (possibly via a short).
    assert result.quality.drv_breakdown.get("open", 0) == 0


def test_flow_quality_score_positive(crp_flow_result):
    _, result = crp_flow_result
    assert result.quality.score > 0
    assert result.quality.wirelength_units > 0


def test_post_crp_def_round_trips(crp_flow_result):
    design, _ = crp_flow_result
    tech = parse_lef(write_lef(design.tech))
    back = parse_def(write_def(design), tech)
    assert len(back.cells) == len(design.cells)
    for name, cell in design.cells.items():
        assert (back.cells[name].x, back.cells[name].y) == (cell.x, cell.y)
    # The re-parsed design is as legal as the in-memory one.
    assert check_legality(back).is_legal


def test_crp_histories_populated(crp_flow_result):
    design, result = crp_flow_result
    assert result.crp is not None
    if result.crp.total_moved:
        assert design.moved_history
    assert design.critical_history


def test_runtime_accounting_complete(crp_flow_result):
    _, result = crp_flow_result
    assert set(result.runtime) == {"GR", "CRP", "DR"}
    assert all(v >= 0 for v in result.runtime.values())
    crp = result.trace.find("flow.CRP")
    steps = sum(sum(it.child_walls().values()) for it in crp.children)
    assert steps <= result.runtime["CRP"]
