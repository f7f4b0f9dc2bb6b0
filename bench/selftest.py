"""Liveness check of the benchmark's wrappers: ``python3 bench/selftest.py``.

Runs a few flows on ``ispd18_test1`` (seconds, not one of the named
workloads) with the wrappers installed and fails loudly when

* a wrapped binding never fires on any flow mode (renamed or inlined
  function: its metric would read zero forever),
* a span that a flow shape cannot reach is not zero on that shape,
* the top-level spans leave more than 5% of a traced flow unattributed,
* the outside timings disagree with ``FlowResult.runtime`` by more than 5%,
* a relabelled instance (what ``--seed`` makes) is not the same routing
  problem under other names, or a re-seeded design does not run clean.
"""

from __future__ import annotations

import dataclasses
import sys

import child
import tracing

sys.path.insert(0, str(child.ROOT / "src"))

DESIGN = "ispd18_test1"

#: spans a flow of this shape cannot reach; the named workloads are these shapes
UNREACHED = {
    "crp full": ("baseline.run", "ilp.fontana_solve"),
    "crp, DR skipped": (
        "baseline.run", "ilp.fontana_solve",
        "droute.route_all", "groute.guides", "evalmetrics.evaluate",
    ),
    "fontana, DR skipped": (
        "core.iteration", "core.label", "core.gcp", "core.ecc", "core.select",
        "core.update", "ilp.select_solve", "guard.txn",
        "droute.route_all", "groute.guides", "evalmetrics.evaluate",
    ),
    "baseline, DR skipped": (
        "core.iteration", "core.label", "core.gcp", "core.ecc", "core.select",
        "core.update", "legalizer.run", "ilp.window_solve", "ilp.select_solve",
        "ilp.fontana_solve", "guard.txn", "baseline.run", "groute.reroute_nets",
        "droute.route_all", "groute.guides", "evalmetrics.evaluate",
    ),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def close(outside: float, inside: float) -> bool:
    return abs(outside - inside) <= 0.05 * inside


def traced_flow(trace: tracing.Trace, shape: str, seed: int = 0, **flow_kwargs):
    """One flow on a fresh design; checks what every shape must satisfy."""
    design = child.make_design(DESIGN, seed)
    trace.reset()
    wall_s, (result,) = child.run_flows([design], flow_kwargs)
    layers = trace.metrics(wall_s)
    check(not result.failed and result.legal, f"{shape}: flow ran clean and legal")
    for span in UNREACHED.get(shape, ()):
        check(layers[f"{span}_calls"] == 0, f"{shape}: {span} is zero")
    check(
        0 <= layers["flow.other_s"] <= 0.05 * wall_s,
        f"{shape}: top-level spans cover the flow "
        f"(other {layers['flow.other_s']:.4f} s of {wall_s:.4f} s)",
    )
    return result, layers


def main() -> None:
    from repro.benchgen import SUITE, generate_design
    from repro.flow import run_flow
    from repro.guard import FaultPlan, use_faults

    trace = tracing.install()

    shape = "crp full"
    result, layers = traced_flow(trace, shape, mode="crp", crp_iterations=2)
    stages = result.runtime
    check(close(layers["groute.route_all_s"], stages["GR"]), f"{shape}: GR timed from outside agrees")
    check(close(layers["core.iteration_s"], stages["CRP"]), f"{shape}: CRP timed from outside agrees")
    outside_dr = (
        layers["groute.guides_s"] + layers["droute.route_all_s"] + layers["evalmetrics.evaluate_s"]
    )
    check(close(outside_dr, stages["DR"]), f"{shape}: DR timed from outside agrees")
    check(
        layers["droute.drvs_short"] + layers["droute.drvs_min_area"] + layers["droute.drvs_other"]
        == result.quality.drvs,
        f"{shape}: DRV counts add up to quality.drvs",
    )

    # --seed: same routing problem, other names.
    tagged, _ = traced_flow(trace, shape, seed=7, mode="crp", crp_iterations=2)
    same = dataclasses.replace(tagged.quality, design=result.quality.design) == result.quality
    check(same, "--seed 7: quality equals the untagged instance's")
    check(
        tagged.routes_digest != result.routes_digest
        and tagged.placement_digest != result.placement_digest,
        "--seed 7: digests differ from the untagged instance's",
    )

    shape = "crp, DR skipped"
    traced_flow(trace, shape, mode="crp", crp_iterations=1, skip_detailed=True)
    with use_faults(FaultPlan().force("crp.invariants", "selftest")):
        _, layers = traced_flow(
            trace, "crp, rollback forced", mode="crp", crp_iterations=1, skip_detailed=True
        )
    check(layers["core.rollbacks"] == 1, "crp, rollback forced: one rollback counted")

    shape = "fontana, DR skipped"
    result, layers = traced_flow(trace, shape, mode="fontana", skip_detailed=True)
    check(
        close(layers["baseline.run_s"], result.runtime["BASELINE"]),
        f"{shape}: BASELINE timed from outside agrees",
    )

    traced_flow(trace, "baseline, DR skipped", mode="baseline", skip_detailed=True)

    for (owner, attr), fired in trace.fired.items():
        check(fired > 0, f"wrapper {owner}.{attr} fired ({fired} calls)")

    # No check above may depend on values specific to the suite seeds.
    spec = SUITE[DESIGN]
    reseeded = run_flow(
        generate_design(dataclasses.replace(spec, seed=spec.seed + 1)),
        mode="crp", crp_iterations=1,
    )
    check(not reseeded.failed and reseeded.legal, "re-seeded design: flow ran clean and legal")

    if failures:
        sys.exit(f"selftest: {len(failures)} checks failed")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
