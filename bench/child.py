"""One repetition of one workload in a fresh interpreter: set up, run the
flow, print one JSON line.

``run.py`` starts this once per repetition, one at a time, so that every
sample of set-up time, flow time and peak memory is what one ``crp run``
invocation pays, lazy imports and first-call paths included.  A *flow* is
the workload's ``run_flow`` call(s) on freshly generated designs,
generated outside the timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> (suite designs run in order, ``run_flow`` keyword arguments).
#: Why each one exists, and which two the driver gates on, is in README.md.
WORKLOADS: dict[str, tuple[tuple[str, ...], dict]] = {
    "full_k1_test5": (
        ("ispd18_test5",),
        {"mode": "crp", "crp_iterations": 1},
    ),
    "crp_k10_test5": (
        ("ispd18_test5",),
        {"mode": "crp", "crp_iterations": 10, "skip_detailed": True},
    ),
    "fontana_test10": (
        ("ispd18_test10",),
        {"mode": "fontana", "skip_detailed": True},
    ),
    "gr_sweep_t6_t10": (
        tuple(f"ispd18_test{i}" for i in range(6, 11)),
        {"mode": "baseline", "skip_detailed": True},
    ),
}


def relabel(design, tag: str):
    """The same instance under other names: ``tag`` prefixes every cell,
    net and I/O pin.

    A common prefix keeps every name comparison, and with it every
    tie-break, as it was, so the routing problem and the work are those
    of the untagged design while the input bytes and both digests differ.
    README.md ("What --seed does") says why a seed may not do more.
    """
    from repro.db import Cell, Design, Net, NetPin

    out = Design(design.name, design.tech, design.die)
    for row in design.rows:
        out.add_row(dataclasses.replace(row))
    out.gcell_grid = design.gcell_grid
    for blockage in design.blockages:
        out.add_blockage(blockage)
    for cell in design.cells.values():
        out.add_cell(
            Cell(tag + cell.name, cell.macro, cell.x, cell.y, cell.orient, cell.fixed)
        )
    for pin in design.iopins.values():
        out.add_iopin(dataclasses.replace(pin, name=tag + pin.name))
    for net in design.nets.values():
        pins = [
            NetPin(None, tag + p.pin) if p.cell is None else NetPin(tag + p.cell, p.pin)
            for p in net.pins
        ]
        out.add_net(Net(tag + net.name, pins))
    return out


def make_design(name: str, seed: int):
    """Suite design ``name`` as ``--seed`` presents it (0: as generated)."""
    from repro.benchgen import SUITE, generate_design

    design = generate_design(SUITE[name])
    return relabel(design, f"s{seed}_") if seed else design


def run_flows(designs, flow_kwargs) -> tuple[float, list]:
    """One repetition: wall seconds and the ``FlowResult`` per design."""
    from repro.flow import run_flow

    start = time.perf_counter()
    results = [run_flow(design, **flow_kwargs) for design in designs]
    return time.perf_counter() - start, results


def quality_of(results) -> dict[str, float]:
    """Final routed quality summed over a repetition's designs: detailed
    numbers where detailed routing ran, global-routing numbers elsewhere."""
    detailed = [r.quality for r in results]
    return {
        "wirelength_dbu": sum(
            q.wirelength_dbu if q else r.gr_wirelength_dbu
            for q, r in zip(detailed, results)
        ),
        "vias": sum(q.vias if q else r.gr_vias for q, r in zip(detailed, results)),
        "drvs": sum(q.drvs for q in detailed if q),
        "gr_overflow": sum(r.gr_overflow for r in results),
    }


def identity_of(results) -> list[dict]:
    """What must repeat exactly between repetitions and under tracing."""
    return [
        {
            "design": r.design,
            "routes_digest": r.routes_digest,
            "placement_digest": r.placement_digest,
            "quality": dataclasses.asdict(r.quality) if r.quality else None,
        }
        for r in results
    ]


def problems_of(results) -> list[str]:
    """Why this flow counts as failed by itself (empty: it passed)."""
    problems = []
    for r in results:
        if r.failed:
            problems.append(f"{r.design}: failed ({r.failure.summary() if r.failure else '?'})")
        if not r.legal:
            problems.append(f"{r.design}: illegal placement")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.time() just before the parent started this interpreter",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    # Set-up is what `crp run` does before its flow: these two imports
    # (scipy.optimize stays lazy, as in the program) and one design.
    import repro.benchgen  # noqa: F401
    import repro.flow  # noqa: F401

    names, flow_kwargs = WORKLOADS[args.workload]
    start = time.perf_counter()
    designs = [make_design(names[0], args.seed)]
    setup_s = time.time() - args.spawned_at
    designs += [make_design(name, args.seed) for name in names[1:]]
    generate_s = time.perf_counter() - start

    trace = None
    if args.trace:
        import tracing

        trace = tracing.install()

    cpu = time.process_time()
    wall_s, results = run_flows(designs, flow_kwargs)
    cpu_s = time.process_time() - cpu
    layers = None
    if trace is not None:
        layers = trace.metrics(wall_s)
        layers["benchgen.generate_s"] = generate_s

    import numpy
    import scipy

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "generate_s": generate_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "stage_s": [r.runtime for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # Linux: KiB
        "problems": problems_of(results),
        "quality": quality_of(results),
        "identity": identity_of(results),
        "layers": layers,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
