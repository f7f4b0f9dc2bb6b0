"""Ablation — the logistic congestion penalty in the movement cost.

The paper credits CR&P's edge over [18] partly to its congestion-aware
cost (Eq. 10's logistic penalty): candidates in congested regions look
expensive, so cells move *away* from hot-spots.  This ablation runs
CR&P with the penalty enabled vs disabled on a congested design and
compares the resulting GR-level via counts and overflow: the overflow
CR&P leaves, and what the repair that closes the stage leaves of it.
"""

from __future__ import annotations

from conftest import write_table

DESIGN = "ispd18_test5"  # congested: blockage + high utilization


def _run(use_penalty: bool):
    from repro.benchgen import make_design
    from repro.core import CrpConfig
    from repro.flow import run_flow

    return run_flow(
        make_design(DESIGN),
        mode="crp",
        crp_iterations=3,
        config=CrpConfig(seed=0, use_penalty=use_penalty),
        skip_detailed=True,
    )


def test_ablation_congestion_penalty(benchmark):
    def run_both():
        return _run(True), _run(False)

    with_penalty, without_penalty = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    def unrepaired(result) -> float:
        return result.metrics["gauges"]["flow.gr_overflow_unrepaired"]

    lines = [
        f"Ablation: logistic congestion penalty (CR&P k=3 on {DESIGN})",
        f"{'variant':<16}{'GR wl (dbu)':>14}{'GR vias':>9}"
        f"{'unrepaired':>12}{'overflow':>10}",
        "-" * 61,
    ]
    for variant, result in (
        ("penalty on", with_penalty), ("penalty off", without_penalty)
    ):
        lines.append(
            f"{variant:<16}{result.gr_wirelength_dbu:>14}{result.gr_vias:>9}"
            f"{unrepaired(result):>12.1f}{result.gr_overflow:>10.1f}"
        )
    write_table("ablation_penalty", lines)

    # Shape: the congestion-aware variant must not leave more overflow.
    # The hand-off repair clears both, so the shape is read off the
    # overflow CR&P left before it.
    assert unrepaired(with_penalty) <= unrepaired(without_penalty) + 1.0
