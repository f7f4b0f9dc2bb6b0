"""Fig. 3 — percentage runtime breakdown of the CUGR+CR&P+DR flow.

Per design, the share of GR, Generate Candidate Positions (GCP),
Estimate Candidate Cost (ECC), Update Database (UD), other CR&P steps
(Misc), and detailed routing (DR).  Expected shape: ECC is the largest
CR&P step (it runs the 3D pattern router per candidate), and the whole
CR&P portion is comparable to or below the routing stages.
"""

from __future__ import annotations

import pytest

from conftest import flow_result, write_table


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ECC is not the largest CR&P step on ispd18_test1: ECC 6.4 % vs "
    "GCP 34.9 % / Misc 28.9 % in the quick suite (run alone, Misc also "
    "carries the scipy import: 3.6 / 20.8 / 57.8 %); ECC got ~25x cheaper "
    "since the seed, see ROADMAP item 2",
)
def test_fig3_breakdown(benchmark, designs):
    from repro.flow import runtime_breakdown_pct
    from repro.flow.runtime import FIG3_STAGES

    def run_all():
        return {name: flow_result(name, "crp10") for name in designs}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = f"{'Benchmark':<15}" + "".join(f"{s:>8}" for s in FIG3_STAGES)
    lines = [
        "Fig. 3: runtime breakdown (%) of GR + CR&P(k=10) + DR",
        header,
        "-" * len(header),
    ]
    for name in designs:
        pct = runtime_breakdown_pct(results[name])
        lines.append(
            f"{name:<15}" + "".join(f"{pct[s]:>8.1f}" for s in FIG3_STAGES)
        )
        # Shape: ECC dominates the CR&P-internal steps.
        crp_internal = {k: pct[k] for k in ("GCP", "ECC", "UD", "Misc")}
        assert pct["ECC"] == max(crp_internal.values()), (
            name,
            crp_internal,
        )
    write_table("fig3", lines)
