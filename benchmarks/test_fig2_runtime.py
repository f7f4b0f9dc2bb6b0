"""Fig. 2 — runtime comparison: baseline, [18], CR&P k=1, CR&P k=10.

Prints the wall-clock of each flow variant per design.  Expected shape:
CR&P k=1 adds a small margin over the baseline; k=10 grows roughly
linearly in k (not exponentially).  In the paper [18] is the slowest
and fails on test10.  Here [18] prices through the same batched ECC as
CR&P and finishes every design: on all ten designs the slowest movement
stage is CR&P k=10's, and [18]'s lies between CR&P k=1's and k=10's
(EXPERIMENTS.md, Fig. 2).  A column reads Failed only when a stage of
the flow raised.
"""

from __future__ import annotations

from conftest import VARIANTS, flow_result, write_table


def test_fig2_runtime(benchmark, designs):
    def run_all():
        return {
            (name, variant): flow_result(name, variant)
            for name in designs
            for variant in VARIANTS
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Fig. 2: flow runtime (seconds) per design and variant",
        f"{'Benchmark':<15}{'Baseline':>10}{'[18]':>10}{'CRP k=1':>10}{'CRP k=10':>10}",
        "-" * 55,
    ]
    movement_ratios = []
    for name in designs:
        row = [f"{name:<15}"]
        base = results[(name, "baseline")]
        for variant in VARIANTS:
            res = results[(name, variant)]
            if res.failed:
                row.append(f"{'Failed':>10}")
            else:
                row.append(f"{res.total_runtime:>10.1f}")
        lines.append("".join(row))
        crp1 = results[(name, "crp1")]
        crp10 = results[(name, "crp10")]
        move1 = crp1.runtime.get("CRP", 0.0)
        move10 = crp10.runtime.get("CRP", 0.0)
        if move1 > 0.05:
            movement_ratios.append(move10 / move1)
    write_table("fig2", lines)

    # Shape: k=10 movement stage grows sub-exponentially (roughly
    # linear in k => ratio well under k^2; allow generous slack).
    for ratio in movement_ratios:
        assert ratio < 40.0, f"CRP k=10/k=1 runtime ratio {ratio:.1f} too steep"
