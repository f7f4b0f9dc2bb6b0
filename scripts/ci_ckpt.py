#!/usr/bin/env python
"""CI durability gate for ``repro.ckpt``.

Kill/resume, asserting SHA-256 byte-equality of the final committed
routes and placement against an uninterrupted reference run (the
``routes_digest`` / ``placement_digest`` every flow computes): a child
process runs the checkpointing CR&P flow and SIGKILLs itself
mid-iteration 2 (fault-injected after the ``CRP:1`` boundary checkpoint
landed; no atexit, no flushing).  The parent then resumes from the
surviving checkpoints and must reproduce the reference byte-for-byte.

Usage::

    python scripts/ci_ckpt.py                 # the CI `ckpt` job
    python scripts/ci_ckpt.py -b ispd18_test1 -k 5
"""

from __future__ import annotations

import argparse
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.benchgen import make_design  # noqa: E402
from repro.ckpt import CheckpointStore  # noqa: E402
from repro.core import CrpConfig  # noqa: E402
from repro.flow import run_flow  # noqa: E402

#: the child must survive exactly one full iteration, then die in the
#: second: a forced ``None`` is a no-op for ``crp.select`` (iteration 1
#: passes through untouched), the second trigger raises ``KillSelf``
#: whose constructor SIGKILLs the process before any cleanup can run.
CHILD = textwrap.dedent(
    """
    import os, signal, sys
    sys.path.insert(0, {src!r})
    from repro.benchgen import make_design
    from repro.core import CrpConfig
    from repro.flow import run_flow
    from repro.guard import FaultPlan, install_faults

    class KillSelf(Exception):
        def __init__(self, *args):
            os.kill(os.getpid(), signal.SIGKILL)

    plan = FaultPlan()
    plan.force("crp.select", None, times=1)
    plan.fail("crp.select", KillSelf, times=1)
    install_faults(plan)
    run_flow(
        make_design({bench!r}),
        mode="crp",
        crp_iterations={k},
        config=CrpConfig(seed={seed}),
        checkpoint_dir={ckpt_dir!r},
        skip_detailed=True,
    )
    """
)


def flow(bench: str, k: int, seed: int, **kwargs):
    return run_flow(
        make_design(bench),
        mode="crp",
        crp_iterations=k,
        config=CrpConfig(seed=seed),
        skip_detailed=True,
        **kwargs,
    )


def digests(result) -> tuple[str, str]:
    return result.routes_digest, result.placement_digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-b", "--bench", default="ispd18_test1")
    parser.add_argument("-k", "--iterations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bench, k, seed = args.bench, args.iterations, args.seed
    failures: list[str] = []

    print(f"[1/3] uninterrupted reference: {bench} crp k={k}", flush=True)
    ref = digests(flow(bench, k, seed))

    workdir = Path(tempfile.mkdtemp(prefix="ci-ckpt-"))
    try:
        ckpt_dir = workdir / "ckpt"
        print("[2/3] child run, SIGKILL mid-iteration 2", flush=True)
        child = subprocess.run(
            [sys.executable, "-c", CHILD.format(
                src=str(ROOT / "src"), bench=bench, k=k, seed=seed,
                ckpt_dir=str(ckpt_dir),
            )],
            capture_output=True, text=True, timeout=1200,
        )
        if child.returncode != -signal.SIGKILL:
            print(child.stdout, end="")
            print(child.stderr, end="", file=sys.stderr)
            failures.append(
                f"child exited {child.returncode}, expected "
                f"-SIGKILL ({-signal.SIGKILL})"
            )
        names = [p.name for p in CheckpointStore(ckpt_dir).paths()]
        expected = ["ckpt-0000-GR0.ckpt", "ckpt-0001-CRP1.ckpt"]
        if names != expected:
            failures.append(f"surviving checkpoints {names} != {expected}")

        print("[3/3] resume, byte-equality vs reference", flush=True)
        resumed = flow(
            bench, k, seed, checkpoint_dir=str(ckpt_dir), resume=True
        )
        if resumed.resumed_from != "CRP:1":
            failures.append(
                f"resume started from {resumed.resumed_from!r}, "
                "expected 'CRP:1'"
            )
        if digests(resumed) != ref:
            failures.append(
                f"resume diverged: {digests(resumed)} != {ref}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"PASS: kill/resume byte-identical on {bench}; "
            f"routes {ref[0][:12]}… placement {ref[1][:12]}…"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
