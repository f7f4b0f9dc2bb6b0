"""Command-line interface: ``crp`` (or ``python -m repro``).

Subcommands:

* ``crp table2`` — print the synthetic suite statistics (Table II).
* ``crp run -b ispd18_test2 -m crp -k 10`` — one flow run; add
  ``--profile`` for the span tree and ``--trace-out trace.json`` for a
  machine-readable trace.
* ``crp suite -b ispd18_test1 ispd18_test2`` — Table III rows for the
  given designs (baseline, [18], CR&P k=1, CR&P k=10).
* ``crp profile ispd18_test1`` — run the flow under full observation,
  print the per-stage span tree + metrics, and write ``BENCH_obs.json``.
* ``crp dump -b ispd18_test2 -o outdir`` — write LEF/DEF/guides for a
  synthetic benchmark.
* ``crp check -b ispd18_test1 --crp 2`` — route a benchmark, then audit
  the flow invariants (demand accounting, route connectivity, guide
  coverage, placement legality); ``python -m repro.analyze src/`` is
  the companion source-code linter.
* ``crp analyze [--json PATH] [-b DESIGN]`` — run the AST linter
  (REPRO-U001 stale-noqa check included), optionally followed by the
  flow-invariant audit of a routed benchmark; one combined exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crp",
        description="CR&P (DATE 2022) reproduction flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table2 = sub.add_parser("table2", help="print suite statistics")

    p_run = sub.add_parser("run", help="run one flow")
    p_run.add_argument("-b", "--bench", required=True)
    p_run.add_argument(
        "-m", "--mode", default="crp", choices=("baseline", "crp", "fontana")
    )
    p_run.add_argument("-k", "--iterations", type=int, default=1)
    p_run.add_argument("--skip-detailed", action="store_true")
    p_run.add_argument(
        "--profile", action="store_true",
        help="print the per-stage span tree and metrics after the run",
    )
    p_run.add_argument(
        "--trace-out", metavar="PATH",
        help="write the JSON span trace (+ metrics) to this path",
    )
    p_run.add_argument(
        "--budget", type=float, metavar="S",
        help="wall-clock budget for the whole flow in seconds",
    )
    p_run.add_argument(
        "--stage-budget", type=float, metavar="S",
        help="wall-clock budget per flow stage in seconds",
    )
    p_run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write atomic repro.ckpt checkpoints at stage/iteration "
        "boundaries (default: CRP_CHECKPOINT_DIR env or off)",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="resume from the newest compatible checkpoint in "
        "--checkpoint-dir (byte-identical final routes/quality)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="run a flow under full observation and emit BENCH_obs.json",
    )
    p_profile.add_argument("bench", nargs="+", help="benchmark design name(s)")
    p_profile.add_argument(
        "-m", "--mode", default="crp", choices=("baseline", "crp", "fontana")
    )
    p_profile.add_argument("-k", "--iterations", type=int, default=1)
    p_profile.add_argument("--skip-detailed", action="store_true")
    p_profile.add_argument(
        "-o", "--out", default="BENCH_obs.json",
        help="output document path (default: BENCH_obs.json)",
    )

    p_suite = sub.add_parser("suite", help="Table III rows for designs")
    p_suite.add_argument("-b", "--bench", nargs="+", required=True)
    p_suite.add_argument("--k10", action="store_true", help="include k=10")

    p_dump = sub.add_parser("dump", help="write LEF/DEF/guide files")
    p_dump.add_argument("-b", "--bench", required=True)
    p_dump.add_argument("-o", "--out", default=".")

    p_check = sub.add_parser(
        "check",
        help="audit flow invariants (accounting/connectivity/legality/ILP)",
    )
    p_check.add_argument(
        "-b", "--bench", "--design", dest="bench", default="ispd18_test1",
        help="benchmark design to route and audit (default: ispd18_test1)",
    )
    p_check.add_argument(
        "--crp", type=int, default=0, metavar="K",
        help="run K CR&P iterations before auditing",
    )
    p_check.add_argument(
        "--skip-routing", action="store_true",
        help="audit placement legality only (no global routing run)",
    )
    p_check.add_argument(
        "--json", metavar="PATH",
        help="write the JSON (SARIF-lite) report to this path",
    )

    p_analyze = sub.add_parser(
        "analyze",
        help="run every analyzer: the AST linter "
        "(+ flow invariants with -b)",
    )
    p_analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p_analyze.add_argument(
        "-b", "--bench", default=None, metavar="DESIGN",
        help="also route this benchmark and audit the flow invariants",
    )
    p_analyze.add_argument(
        "--crp", type=int, default=0, metavar="K",
        help="with -b: run K CR&P iterations before auditing",
    )
    p_analyze.add_argument(
        "--json", metavar="PATH",
        help="write the combined JSON (SARIF-lite) report to this path",
    )

    p_show = sub.add_parser("show", help="ASCII congestion map + SVG plot")
    p_show.add_argument("-b", "--bench", required=True)
    p_show.add_argument("--svg", help="write an SVG die plot to this path")
    p_show.add_argument(
        "--crp", type=int, default=0, metavar="K",
        help="run K CR&P iterations before rendering",
    )

    args = parser.parse_args(argv)
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "dump":
        return _cmd_dump(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "show":
        return _cmd_show(args)
    return 2


def _cmd_table2() -> int:
    from repro.benchgen import suite_table

    header = f"{'circuit':<16}{'#nets':>8}{'#cells':>8}  node    (paper: nets/cells)"
    print(header)
    print("-" * len(header))
    for row in suite_table():
        print(
            f"{row['circuit']:<16}{row['nets']:>8}{row['cells']:>8}"
            f"  {row['tech_node']:<6}  ({row['paper_nets']}/{row['paper_cells']})"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.benchgen import make_design
    from repro.flow import run_flow

    import os

    if args.resume and not (
        args.checkpoint_dir or os.environ.get("CRP_CHECKPOINT_DIR", "").strip()
    ):
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    design = make_design(args.bench)
    result = run_flow(
        design,
        mode=args.mode,
        crp_iterations=args.iterations,
        skip_detailed=args.skip_detailed,
        budget_s=args.budget,
        stage_budget_s=args.stage_budget,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(result.summary())
    if result.resumed_from is not None:
        print(f"  resumed from checkpoint {result.resumed_from}")
    for report in result.ckpt_failures:
        print(f"  checkpoint warning: {report.summary()}", file=sys.stderr)
    if result.failure is not None:
        print(f"  failure: {result.failure.summary()}", file=sys.stderr)
    if result.quality:
        print(
            f"  score={result.quality.score:.1f} "
            f"drvs={result.quality.drv_breakdown}"
        )
    opens = (result.metrics or {}).get("counters", {}).get("droute.opens", 0)
    if opens:
        print(
            f"  opens: {int(opens)} connection(s) that neither the hard nor "
            "the soft search could route (droute.opens)"
        )
    print(f"  runtime: {({k: round(v, 2) for k, v in result.runtime.items()})}")
    if args.profile and result.trace is not None:
        from repro.obs import render_metrics, render_tree

        print()
        print(render_tree(result.trace))
        print()
        print(render_metrics(result.metrics or {}))
    if args.trace_out and result.trace is not None:
        from repro.obs import write_trace

        path = write_trace(
            args.trace_out,
            [result.trace],
            result.metrics,
            extra={"design": result.design, "mode": result.mode},
        )
        print(f"wrote trace to {path}")
    if result.failed or not result.legal:
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import profile_flow, write_bench_obs

    reports = []
    for bench in args.bench:
        report = profile_flow(
            bench,
            mode=args.mode,
            iterations=args.iterations,
            skip_detailed=args.skip_detailed,
        )
        reports.append(report)
        print(report.render())
        print()
    path = write_bench_obs(reports, args.out)
    print(f"wrote {path}")
    if any(r.failed or not r.legal for r in reports):
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.benchgen import make_design
    from repro.flow import run_flow

    modes: list[tuple[str, int]] = [("baseline", 0), ("fontana", 0), ("crp", 1)]
    if args.k10:
        modes.append(("crp", 10))
    rc = 0
    for bench in args.bench:
        rows = {}
        for mode, k in modes:
            design = make_design(bench)
            result = run_flow(design, mode=mode, crp_iterations=max(k, 1))
            rows[(mode, k)] = result
        base = rows[("baseline", 0)].quality
        print(f"== {bench} ==")
        for (mode, k), result in rows.items():
            if result.failed or result.quality is None or base is None:
                print(f"  {mode:<10} FAILED")
                rc = 1
                continue
            if not result.legal:
                rc = 1
            imp = result.quality.improvement_over(base)
            label = f"{mode}{f' k={k}' if k else ''}"
            print(
                f"  {label:<12} wl={result.quality.wirelength_dbu:>10} "
                f"({imp['wirelength']:+.2f}%) vias={result.quality.vias:>7} "
                f"({imp['vias']:+.2f}%) drvs={result.quality.drvs}"
            )
    return rc


def _cmd_dump(args: argparse.Namespace) -> int:
    from repro.benchgen import SUITE, make_design
    from repro.db import check_legality
    from repro.groute import GlobalRouter
    from repro.lefdef import write_def, write_guides, write_lef

    design = make_design(args.bench)
    legality = check_legality(design)
    if not legality.is_legal:
        print(
            f"refusing to dump an illegal placement "
            f"({len(legality.violations)} violations)",
            file=sys.stderr,
        )
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.bench}.lef").write_text(write_lef(design.tech))
    (out / f"{args.bench}.def").write_text(write_def(design))
    router = GlobalRouter(design)
    router.route_all()
    (out / f"{args.bench}.guide").write_text(
        write_guides(router.guides(), design.tech)
    )
    print(f"wrote {args.bench}.lef/.def/.guide to {out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analyze import (
        FLOW_RULES,
        check_flow_state,
        render_findings,
        report_document,
        write_report,
    )
    from repro.benchgen import make_design
    from repro.core import CrpConfig, CrpFramework
    from repro.groute import GlobalRouter
    from repro.obs import ensure_observation

    design = make_design(args.bench)
    with ensure_observation():
        router = None
        if not args.skip_routing:
            router = GlobalRouter(design)
            router.route_all()
            if args.crp > 0:
                CrpFramework(design, router, CrpConfig(seed=0)).run(args.crp)
        findings = check_flow_state(design, router)
    print(render_findings(findings))
    if args.json:
        document = report_document(
            findings,
            tool="repro.analyze.check",
            rule_table=FLOW_RULES,
            extra={"design": args.bench, "crp_iterations": args.crp},
        )
        path = write_report(args.json, document)
        print(f"wrote report to {path}")
    return 1 if findings else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analyze import (
        analysis_report,
        check_flow_state,
        lint_paths,
        render_findings,
        write_report,
    )

    result = lint_paths(list(args.paths), relative_to=".")
    print(render_findings(result.findings, suppressed=result.suppressed))
    print(f"scanned {result.files_scanned} file(s)")
    for path, message in result.parse_errors:
        print(f"  parse error: {path}: {message}", file=sys.stderr)

    flow_findings = []
    if args.bench is not None:
        from repro.benchgen import make_design
        from repro.core import CrpConfig, CrpFramework
        from repro.groute import GlobalRouter
        from repro.obs import ensure_observation

        design = make_design(args.bench)
        with ensure_observation():
            router = GlobalRouter(design)
            router.route_all()
            if args.crp > 0:
                CrpFramework(design, router, CrpConfig(seed=0)).run(args.crp)
            flow_findings = check_flow_state(design, router)
        print()
        print(f"== flow invariants: {args.bench} ==")
        print(render_findings(flow_findings))

    if args.json:
        document = analysis_report(result)
        if args.bench is not None:
            from repro.analyze import FLOW_RULES, finding_to_dict

            document["flow"] = {
                "design": args.bench,
                "crp_iterations": args.crp,
                "rules": FLOW_RULES,
                "findings": [finding_to_dict(f) for f in flow_findings],
            }
        path = write_report(args.json, document)
        print(f"wrote report to {path}")
    return 0 if result.ok and not flow_findings else 1


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.benchgen import make_design
    from repro.core import CrpConfig, CrpFramework
    from repro.db import check_legality
    from repro.groute import GlobalRouter
    from repro.viz import congestion_heatmap, layer_usage_table, svg_die_plot

    design = make_design(args.bench)
    router = GlobalRouter(design)
    router.route_all()
    if args.crp > 0:
        CrpFramework(design, router, CrpConfig(seed=0)).run(args.crp)
    legal = check_legality(design).is_legal
    print(f"{args.bench}: wl={router.total_wirelength_dbu()} "
          f"vias={router.total_vias()} overflow={router.total_overflow():.1f}"
          f"{'' if legal else ' !ILLEGAL-PLACEMENT'}")
    print()
    print(congestion_heatmap(router))
    print()
    print(layer_usage_table(router))
    if args.svg:
        nets = sorted(design.nets)[:20]
        Path(args.svg).write_text(svg_die_plot(design, router, nets=nets))
        print(f"\nwrote {args.svg}")
    return 0 if legal else 1


if __name__ == "__main__":
    sys.exit(main())
