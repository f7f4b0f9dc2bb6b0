"""Rule registrations for the interprocedural dataflow passes.

These rules have no per-file checker — their findings come from the
whole-program passes in :mod:`repro.analyze.dataflow` — so they are
entered into :data:`repro.analyze.rules.RULES` (for severities, hints,
and the report rule table) but never into ``CHECKERS``.  Registration
is idempotent and happens when :mod:`repro.analyze` is imported, so
the rule table is identical whether or not the dataflow passes run.
"""

from __future__ import annotations

from repro.analyze.findings import Severity
from repro.analyze.rules import RULES, Rule

#: taint kind (see summaries.Taint) -> rule ID
TAINT_RULES = {
    "rng": "REPRO-T001",
    "set-order": "REPRO-T002",
    "fs-order": "REPRO-T003",
    "wall-clock": "REPRO-T004",
}

DATAFLOW_RULES: tuple[Rule, ...] = (
    Rule(
        id="REPRO-T001",
        severity=Severity.ERROR,
        summary="value derived from a global or unseeded RNG flows "
        "(interprocedurally) into a commit/digest/checkpoint sink",
        hint="thread a seeded `random.Random(seed)` through the call "
        "chain; the taint enters at the reported line",
    ),
    Rule(
        id="REPRO-T002",
        severity=Severity.ERROR,
        summary="set-iteration order flows (interprocedurally) into a "
        "commit/digest/checkpoint sink",
        hint="iterate `sorted(the_set)` at the reported source line — "
        "hash order must never reach committed state",
    ),
    Rule(
        id="REPRO-T003",
        severity=Severity.ERROR,
        summary="filesystem listing order flows (interprocedurally) "
        "into a commit/digest/checkpoint sink",
        hint="wrap the listing in `sorted(...)` before it feeds any "
        "committed or digested state",
    ),
    Rule(
        id="REPRO-T004",
        severity=Severity.ERROR,
        summary="wall-clock reading flows (interprocedurally) into a "
        "commit/digest/checkpoint payload",
        hint="keep `time.time()`/`datetime.now()` values out of "
        "digests and checkpoint payloads; derive payload fields from "
        "logical counters (monotonic measurements are fine)",
    ),
    Rule(
        id="REPRO-G004",
        severity=Severity.WARNING,
        summary="handler for FaultInjected/DeadlineExceeded whose try "
        "body cannot reach any `fault_point`/`check_deadline` call",
        hint="either the guard call was dropped from the protected "
        "region or the handler is dead — re-wire the fault site or "
        "delete the handler",
    ),
    Rule(
        id="REPRO-G005",
        severity=Severity.ERROR,
        summary="unbounded loop on a call path from `run_flow` never "
        "reaches a deadline tick, even transitively",
        hint="call `check_deadline(\"<site>\")` (or ensure a callee "
        "does) inside the loop body; REPRO-G001 only sees the "
        "syntactic loop body, this rule follows calls",
    ),
    Rule(
        id="REPRO-U001",
        severity=Severity.WARNING,
        summary="`# repro: noqa` comment no longer suppresses anything",
        hint="delete the stale suppression (or fix the rule ID typo); "
        "stale noqa comments hide future regressions",
    ),
)


def register_dataflow_rules() -> None:
    """Idempotently add the dataflow rule records to the registry."""
    for spec in DATAFLOW_RULES:
        if spec.id not in RULES:
            RULES[spec.id] = spec
