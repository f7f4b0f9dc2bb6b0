"""The repo's benchmark: the GR -> CR&P(k) -> DR flow, end to end and layer by layer.

    python3 bench/run.py                      all workloads, untraced then traced,
                                              one result file (bench/out/result.json)
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one measurement; the last line of
                                              standard output is its JSON result
    python3 bench/run.py --compare A.json B.json
                                              B against A, per workload and metric,
                                              against the bounds in BENCHMARK.json

Metric names, units, directions and bounds live in BENCHMARK.json and are
explained in README.md.  End-to-end numbers time ``repro.flow.run_flow``
with nothing installed; per-layer numbers come from a separate traced run
(``tracing.py``).  Every flow runs in a fresh child interpreter
(``child.py``), one at a time, serial, with the environment below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: a child is killed after this long so that a hung flow cannot outlive the run
CHILD_TIMEOUT_S = 150
#: variables that would switch the program to its parallel or checkpointed paths
SCRUBBED = ("CRP_WORKERS", "CRP_CHECKPOINT_DIR")
#: one core busy; a fixed hash seed takes str-hash layout out of the timing noise
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn(workload: str, seed: int, trace: int) -> dict:
    """Run ``child.py`` (one repetition) to completion and return its report."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(PINNED)
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"bench: child exited with {done.returncode}: {' '.join(command)}")
    return json.loads(done.stdout.splitlines()[-1])


def build() -> None:
    """Byte-compile the program, so that no timed import pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(BENCH)],
        stdout=subprocess.DEVNULL, check=True,
    )


def repeat(workload: str, seed: int, seconds: float, traces: tuple[int, ...]) -> list[dict]:
    """Children one at a time, cycling through ``traces``: at least two
    rounds, then more while one more round, at the pace of the fastest so
    far, would end within ``seconds`` of flow time.  (The fastest, not the
    slowest: a slow host then gets as many repetitions as a quiet one,
    which is when they are needed.)  Marks every repetition whose digests
    or quality differ from the first one's as failed."""
    reps: list[dict] = []
    measured, fastest = 0.0, float("inf")
    while len(reps) < 2 * len(traces) or measured + fastest <= seconds:
        round_ = [spawn(workload, seed, trace) for trace in traces]
        reps += round_
        round_s = sum(rep["wall_s"] for rep in round_)
        measured += round_s
        fastest = min(fastest, round_s)
    for rep in reps[1:]:
        if rep["identity"] != reps[0]["identity"]:
            rep["problems"].append("digests or quality differ from repetition 1")
    return reps


def summarize(metrics: dict, samples: dict, reps: list[dict]) -> dict:
    """What one measurement keeps: metrics, pass/fail, raw samples."""
    problems = [
        f"repetition {i}{' (traced)' if rep['traced'] else ''}: {'; '.join(rep['problems'])}"
        for i, rep in enumerate(reps, 1)
        if rep["problems"]
    ]
    return {
        "metrics": metrics,
        "attempted": len(reps),
        "failed": len(problems),
        "problems": problems,
        "samples": samples,
        "reps": [
            {k: rep[k] for k in ("traced", "setup_s", "generate_s", "wall_s", "cpu_s", "stage_s", "peak_rss_mb")}
            for rep in reps
        ],
        "quality": reps[0]["quality"],
        "identity": reps[0]["identity"],
        "versions": reps[0]["versions"],
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    reps = repeat(workload, seed, seconds, (0,))
    samples = {
        "flow_wall_s": [rep["wall_s"] for rep in reps],
        "setup_s": [rep["setup_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }
    quality = reps[0]["quality"]
    metrics = {
        # Interference from the host only ever adds time: the fastest
        # repetition is the one closest to what the program costs.
        "flow_wall_s": min(samples["flow_wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "wirelength_dbu": quality["wirelength_dbu"],
        "vias": quality["vias"],
        # +1: the driver's bounds are shares of the value, which may not be 0
        "drvs_plus1": quality["drvs"] + 1,
        "gr_overflow_plus1": round(quality["gr_overflow"], 6) + 1,
    }
    return summarize(metrics, samples, reps)


def trace_layers(workload: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics of one workload, from untraced and traced
    children in turn; their digests must agree (``repeat`` checks), which
    shows that the wrappers did not perturb the program."""
    reps = repeat(workload, seed, seconds, (0, 1))
    plain = [rep["wall_s"] for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = min(rep["wall_s"] for rep in traced)
    metrics["trace.overhead_pct"] = 100 * (traced_wall - min(plain)) / min(plain)
    samples = {
        "untraced_flow_wall_s": plain,
        "traced_flow_wall_s": [rep["wall_s"] for rep in traced],
    }
    out = summarize(metrics, samples, reps)
    out["traced_flow_wall_s"] = statistics.median(samples["traced_flow_wall_s"])
    return out


def show(title: str, record: dict, declared: list[dict]) -> None:
    """Print the declared metrics of one record by name, with units."""
    print(f"{title}: {record['failed']} failed of {record['attempted']} repetitions")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    for metric in declared:
        name = metric["name"]
        line = f"  {name:28s} {record['metrics'][name]:16.6f} {metric['unit']}"
        samples = record["samples"].get(name)
        if samples:
            line += (
                f"   of {len(samples)}: min {min(samples):.4f},"
                f" median {statistics.median(samples):.4f}, max {max(samples):.4f}"
            )
        print(line)


def result_line(record: dict, declared: list[dict]) -> str:
    """The driver's one-line JSON result."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }
    )


def manifest(spec: dict, seed: int, seconds: float, started: str, versions: dict) -> dict:
    """Enough to reproduce or diff a result file without reading the code."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except FileNotFoundError:
        sha = None
    return {
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "started": started,
        "cpu_count": os.cpu_count(),
        "machine": platform.platform(),
        "versions": versions,
        "env_scrubbed": list(SCRUBBED),
        "env_pinned": PINNED,
        "command": spec["command"],
    }


def run_all(spec: dict, seed: int, seconds: float, out: Path) -> int:
    """Every workload, untraced then traced; one result file.  Returns failures."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    names = list(WORKLOADS)
    records = {}
    for name in names:
        records[name] = {"end_to_end": measure(name, seed, seconds)}
        show(f"{name} end to end", records[name]["end_to_end"], spec["end_to_end"])
    for name in names:
        records[name]["per_layer"] = layers = trace_layers(name, seed, seconds)
        show(f"{name} per layer", layers, spec["per_layer"])
        wall = layers["traced_flow_wall_s"]
        print(f"  traced flow {wall:.3f} s; share of it per top-level layer:")
        for layer in ("groute.route_all_s", "core.iteration_s", "baseline.run_s", "droute.route_all_s"):
            print(f"    {layer:24s} {100 * layers['metrics'][layer] / wall:5.1f} %")
    failed = sum(r[part]["failed"] for r in records.values() for part in r)
    versions = records[names[0]]["end_to_end"]["versions"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"manifest": manifest(spec, seed, seconds, started, versions), "workloads": records},
            indent=1,
        )
        + "\n"
    )
    print(f"{failed} failed repetitions; result file {out}")
    return failed


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """B against A per (workload, end-to-end metric).  Returns exceedances.

    A metric is *unresolved* when A's own samples spread (max - min over
    the median) wider than the bound: the runs cannot tell a regression
    of that size from noise, which is not the same as "unchanged".
    """
    a_all = json.loads(path_a.read_text())["workloads"]
    b_all = json.loads(path_b.read_text())["workloads"]
    exceeded = 0
    print(f"{'workload':18s} {'metric':20s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>7s}")
    for workload in (w for w in a_all if w in b_all):
        a, b = a_all[workload]["end_to_end"], b_all[workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a["metrics"][name], b["metrics"][name]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            samples = a["samples"].get(name, [va])
            spread = (max(samples) - min(samples)) / statistics.median(samples)
            verdict = ""
            if worse > bound:
                verdict = "EXCEEDS"
                exceeded += 1
            elif spread > bound:
                verdict = f"unresolved (A spreads {spread:.1%})"
            print(
                f"{workload:18s} {name:20s} {va:14.4f} {vb:14.4f} {worse:+9.2%} {bound:7.1%} {verdict}"
            )
    print(f"{exceeded} metrics exceed their bound")
    return exceeded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="measure this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="0: the suite designs as generated")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "result.json",
                        help="result file of a run over all workloads")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        sys.exit(1 if compare(spec, *args.compare) else 0)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build()
    if args.workload is None:
        sys.exit(1 if run_all(spec, args.seed, seconds, args.out) else 0)
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    if args.trace:
        record, declared = trace_layers(args.workload, args.seed, seconds), spec["per_layer"]
    else:
        record, declared = measure(args.workload, args.seed, seconds), spec["end_to_end"]
    show(args.workload, record, declared)
    print(result_line(record, declared))
    sys.exit(1 if record["failed"] else 0)


if __name__ == "__main__":
    main()
