"""Ablation — legalizer window size (the paper's tuned 20x5 window).

The paper reports |sites| = 20, |rows| = 5, |cells| <= 3 as an
experimentally-tuned trade-off between runtime and candidate quality.
This sweep runs one CR&P iteration with smaller and larger windows and
reports achieved GR quality (the movement-stage seconds go to stdout).
"""

from __future__ import annotations

from conftest import write_table

DESIGN = "ispd18_test2"

WINDOWS = [
    (8, 3, 2),
    (20, 5, 3),  # paper default
    (32, 7, 4),
]


def _run(n_sites: int, n_rows: int, max_cells: int):
    from repro.benchgen import make_design
    from repro.core import CrpConfig
    from repro.flow import run_flow

    return run_flow(
        make_design(DESIGN),
        mode="crp",
        crp_iterations=1,
        config=CrpConfig(
            seed=0, n_sites=n_sites, n_rows=n_rows, max_cells=max_cells
        ),
        skip_detailed=True,
    )


def test_ablation_window_sweep(benchmark):
    def run_all():
        return {w: _run(*w) for w in WINDOWS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The committed table holds no wall-clock column, so a run leaves it
    # as it was; the seconds go to stdout.
    lines = [
        f"Ablation: legalizer window sweep (CR&P k=1 on {DESIGN})",
        f"{'sites x rows x cells':<22}{'GR wl (dbu)':>14}{'GR vias':>9}",
        "-" * 45,
    ]
    for window, result in results.items():
        label = f"{window[0]} x {window[1]} x {window[2]}"
        lines.append(f"{label:<22}{result.gr_wirelength_dbu:>14}{result.gr_vias:>9}")
        print(f"{label}: CR&P {result.runtime.get('CRP', 0.0):.1f} s")
    write_table("ablation_window", lines)

    # Shape: a bigger window costs more movement-stage time.
    times = [results[w].runtime.get("CRP", 0.0) for w in WINDOWS]
    assert times[0] <= times[2] * 1.2
