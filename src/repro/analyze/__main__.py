"""``python -m repro.analyze [paths...]`` — run the source analyzers.

Runs the AST linter (every rule, REPRO-U001 included, unless
``--select``/``--ignore`` narrow it).  Exit status is 1 when any
error-severity finding survives suppression (warnings and infos never
fail the run), matching the CI contract.

Baseline maintenance:

* ``--update-baseline`` regenerates ``ANALYZE_baseline.json``
  atomically and byte-stably — the one supported way to bank analyzer
  changes.
* ``--check-baseline`` runs the two-sided CI gate: new findings AND
  baseline entries that no longer fire both fail, with a diff on
  stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze.api import (
    BASELINE_NAME,
    analysis_report,
    check_baseline,
    update_baseline,
)
from repro.analyze.findings import render_findings, write_report
from repro.analyze.linter import LintConfig, lint_paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Lint Python sources with the repo-specific rules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format on stdout",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default="",
        help="comma-separated rule IDs to report exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default="",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--relative-to",
        metavar="DIR",
        default=".",
        help="report paths relative to DIR (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=BASELINE_NAME,
        help=f"baseline report path (default: {BASELINE_NAME})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="regenerate the baseline from this run and exit",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail unless this run matches the baseline exactly "
        "(two-sided: new findings and stale baseline entries both fail)",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        result = update_baseline(
            args.baseline, list(args.paths), relative_to=args.relative_to
        )
        print(
            f"wrote {args.baseline}: {len(result.findings)} finding(s), "
            f"{result.suppressed} suppressed, "
            f"{result.files_scanned} file(s)"
        )
        return 0

    if args.check_baseline:
        ok, lines = check_baseline(
            args.baseline, list(args.paths), relative_to=args.relative_to
        )
        for line in lines:
            print(line)
        if ok:
            print(f"baseline OK: {args.baseline}")
        return 0 if ok else 1

    config = LintConfig(
        select=tuple(s for s in args.select.split(",") if s),
        ignore=tuple(s for s in args.ignore.split(",") if s),
    )
    result = lint_paths(list(args.paths), config, relative_to=args.relative_to)
    document = analysis_report(result)
    if args.output:
        write_report(args.output, document)
    if args.format == "json":
        import json

        print(json.dumps(document, indent=1))
    else:
        print(
            render_findings(result.findings, suppressed=result.suppressed)
        )
        print(f"scanned {result.files_scanned} file(s)")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
