"""Shared infrastructure for the paper-reproduction benchmarks.

Every table and figure of the paper's evaluation section is regenerated
by one module in this directory.  Flow runs are expensive, so results
are computed once per (design, variant) and cached for the whole
session; Table III, Fig. 2, and Fig. 3 all read the same runs.

Environment knobs:

* ``CRP_BENCH_DESIGNS`` — comma-separated design names (default: the
  full ispd18_test1..10 suite).
* ``CRP_BENCH_QUICK=1`` — restrict to three representative designs
  (small / low-congestion / congested) for a fast pass.
* ``CRP_BENCH_K`` — iteration count for the "k=10" column (default 10).

Each benchmark also writes its formatted table to ``bench_results/`` so
EXPERIMENTS.md can reference the exact output.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"

QUICK_DESIGNS = ["ispd18_test1", "ispd18_test2", "ispd18_test5"]


def bench_designs() -> list[str]:
    from repro.benchgen import SUITE

    env = os.environ.get("CRP_BENCH_DESIGNS")
    if env:
        return [name.strip() for name in env.split(",") if name.strip()]
    if os.environ.get("CRP_BENCH_QUICK"):
        return list(QUICK_DESIGNS)
    return list(SUITE)


def bench_k10() -> int:
    return int(os.environ.get("CRP_BENCH_K", "10"))


VARIANTS = ("baseline", "fontana", "crp1", "crp10")

_CACHE: dict[tuple[str, str], object] = {}


def flow_result(design_name: str, variant: str):
    """Run (or fetch) one flow variant on one design."""
    from repro.benchgen import make_design
    from repro.core import CrpConfig
    from repro.flow import run_flow

    key = (design_name, variant)
    if key in _CACHE:
        return _CACHE[key]
    design = make_design(design_name)
    if variant == "baseline":
        result = run_flow(design, mode="baseline")
    elif variant == "fontana":
        result = run_flow(design, mode="fontana")
    elif variant == "crp1":
        result = run_flow(
            design, mode="crp", crp_iterations=1, config=CrpConfig(seed=0)
        )
    elif variant == "crp10":
        result = run_flow(
            design,
            mode="crp",
            crp_iterations=bench_k10(),
            config=CrpConfig(seed=0),
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    _CACHE[key] = result
    return result


def write_table(name: str, lines: list[str]) -> None:
    """Print a benchmark table and persist it under bench_results/."""
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def designs() -> list[str]:
    return bench_designs()
