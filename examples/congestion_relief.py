#!/usr/bin/env python3
"""Congestion relief deep-dive: watch CR&P drain a hot-spot.

Builds a deliberately congested design (macro blockage + dense, highly
local netlist), routes it, then runs CR&P iterations one at a time,
printing the congestion picture after each: total overflow, the worst
GCell utilization, via count, and which cells moved.  This is the
scenario the paper's introduction motivates — placement-level slack is
spent exactly where routing needs it.

Run:  python examples/congestion_relief.py
"""

from __future__ import annotations

import numpy as np

from repro.benchgen.generator import DesignSpec, generate_design
from repro.core import CrpConfig, CrpFramework
from repro.groute import GlobalRouter
from repro.obs import observe


def congestion_snapshot(router: GlobalRouter) -> str:
    cmap = router.graph.congestion_map()
    worst = float(cmap.max())
    hot = int((cmap > 0.9).sum())
    return (
        f"overflow={router.total_overflow():7.1f}  "
        f"worst gcell util={worst:5.2f}  gcells>90%={hot:3d}  "
        f"vias={router.total_vias():5d}  wl={router.total_wirelength_dbu()}"
    )


def main() -> None:
    spec = DesignSpec(
        name="hotspot",
        num_cells=400,
        num_nets=420,
        utilization=0.8,
        locality=0.92,          # tight clusters -> local congestion
        num_blockages=2,        # carve routing hot-spots
        gcells_per_axis=16,
        seed=17,
    )
    design = generate_design(spec)
    print(f"design: {design.stats()}")

    router = GlobalRouter(design)
    router.route_all()
    print(f"\nafter global routing : {congestion_snapshot(router)}")

    framework = CrpFramework(design, router, CrpConfig(seed=3))
    for k in range(5):
        with observe() as obs:
            stats = framework.run_iteration(k)
        ecc_s = obs.tracer.roots[0].child_walls()["crp.ECC"]
        print(
            f"after CR&P iter {k + 1}   : {congestion_snapshot(router)}  "
            f"(moved {stats.num_moved} cells, {ecc_s:.1f}s est.)"
        )

    cmap = router.graph.congestion_map()
    print("\nfinal congestion heat map (utilization, rows = y, top = north):")
    for gy in reversed(range(cmap.shape[1])):
        row = "".join(
            "#" if cmap[gx, gy] > 0.9 else
            "+" if cmap[gx, gy] > 0.7 else
            "." if cmap[gx, gy] > 0.4 else " "
            for gx in range(cmap.shape[0])
        )
        print(f"  |{row}|")


if __name__ == "__main__":
    main()
