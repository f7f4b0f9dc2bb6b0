"""The AST lint engine: file walking, noqa suppression, rule dispatch.

Pure stdlib, and the analyzer's one driver.  :func:`lint_paths` parses
each file once, hands the module to every active rule checker
(:mod:`repro.analyze.rules`), turns the raw ``(node, message)`` pairs
into :class:`Finding` records — after dropping any occurrence
suppressed by an inline ``# repro: noqa:RULE-ID`` comment on the
flagged physical line — and then judges that file's noqa comments for
REPRO-U001 against the rules that actually ran on it.

The run itself is observable: it executes inside an ``analyze.lint``
span and counts ``analyze.files`` / ``analyze.findings`` /
``analyze.findings.<severity>`` / ``analyze.suppressed`` through
whatever ``repro.obs`` metrics registry is active.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.findings import Finding, Severity
from repro.analyze.rules import CHECKERS, RULES, UNUSED_NOQA, ModuleContext
from repro.obs import get_metrics, get_tracer

#: ``# repro: noqa`` or ``# repro: noqa:REPRO-D001,REPRO-G002 — why``
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?::\s*([A-Za-z0-9,\- ]+))?")


@dataclass(frozen=True, slots=True)
class LintConfig:
    """What to run and where; empty tuples mean "no restriction"."""

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def active_rules(self) -> list[str]:
        rules = sorted(RULES)
        if self.select:
            rules = [r for r in rules if r in self.select]
        return [r for r in rules if r not in self.ignore]


@dataclass(slots=True)
class LintResult:
    """Aggregate outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    #: files that failed to parse, as (path, message) — reported as
    #: PARSE-ERROR findings too, so they can never pass silently
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def ok(self) -> bool:
        return self.errors == 0


def suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line noqa map: line number -> suppressed rule IDs (None = all)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        spec = match.group(1)
        if spec is None:
            out[lineno] = None
        else:
            # The justification often follows an em/double dash; only the
            # comma-separated IDs before any dash-word count.
            ids = frozenset(
                token
                for token in (t.strip() for t in spec.split(","))
                if re.fullmatch(r"[A-Z]+-[A-Z]\d+", token)
            )
            out[lineno] = out.get(lineno) or ids
    return out


def _to_location(raw: object) -> tuple[int, int]:
    if isinstance(raw, ast.AST):
        return getattr(raw, "lineno", 0), getattr(raw, "col_offset", 0)
    if isinstance(raw, int):
        return raw, 0
    return 0, 0


def lint_source(
    source: str,
    path: str,
    config: LintConfig | None = None,
    *,
    used: set[tuple[int, str]] | None = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source; returns (findings, suppressed count).

    When ``used`` is given, every suppression that actually absorbed a
    finding is recorded into it as ``(line, rule_id)`` — the raw
    material of the REPRO-U001 unused-suppression meta-rule.
    """
    config = config or LintConfig()
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            rule="PARSE-ERROR",
            severity=Severity.ERROR,
            path=posix,
            line=exc.lineno or 0,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; unparseable files are unlinted",
        )
        return [finding], 0
    ctx = ModuleContext(posix, source, tree)
    noqa = suppressions(source)
    findings: list[Finding] = []
    suppressed = 0
    for rule_id in config.active_rules():
        spec = RULES[rule_id]
        checker = CHECKERS.get(rule_id)
        if checker is None or not spec.applies_to(posix):
            continue
        severity = spec.severity_for(posix)
        for raw, message in checker(ctx):
            line, col = _to_location(raw)
            if line in noqa and (noqa[line] is None or rule_id in noqa[line]):
                suppressed += 1
                if used is not None:
                    used.add((line, rule_id))
                continue
            findings.append(
                Finding(
                    rule=rule_id,
                    severity=severity,
                    path=posix,
                    line=line,
                    message=message,
                    hint=spec.hint,
                    col=col,
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            seen.update(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            seen.add(p)
    return sorted(seen)


_RULE_ID_RE = re.compile(r"[A-Z]+-[A-Z]\d+")

_TRIVIA_TOKENS = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    )
)


def _noqa_comments(source: str) -> list[tuple[int, str | None]]:
    """(line, spec) for every real ``# repro: noqa`` *suppression*.

    Token-based on purpose: noqa text inside a docstring is a STRING
    token and a noqa in a comment-only line (``#: `# repro: noqa` ...``
    documentation) has no code on its line — neither suppresses
    anything, so neither is a candidate for staleness.  ``spec`` is
    ``None`` for a bare ``# repro: noqa``, else the raw ID list text.
    """
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    code_lines: set[int] = set()
    for tok in tokens:
        if tok.type not in _TRIVIA_TOKENS:
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    out: list[tuple[int, str | None]] = []
    for tok in tokens:
        if tok.type is not tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(tok.string)
        if match is None:
            continue
        if tok.start[0] not in code_lines:
            continue
        out.append((tok.start[0], match.group(1)))
    return out


def unused_suppression_findings(
    path: str,
    source: str,
    used: set[tuple[int, str]],
    config: LintConfig | None = None,
) -> list[Finding]:
    """REPRO-U001: one file's suppressions that no longer suppress anything.

    ``used`` holds the ``(line, rule)`` pairs that absorbed a finding in
    :func:`lint_source` under the same ``config``.  A named ID is judged
    only when its rule ran on ``path`` (active under ``config`` and in
    scope for the path); a bare noqa only when every in-scope rule ran.
    An ID that names no registered rule is always reported.  One
    finding per stale comment, listing every stale/unknown ID.
    """
    config = config or LintConfig()
    in_scope = {r for r in CHECKERS if RULES[r].applies_to(path)}
    ran = in_scope.intersection(config.active_rules())
    used_lines = {line for line, _ in used}
    spec = RULES[UNUSED_NOQA]
    findings: list[Finding] = []
    for line, raw_spec in _noqa_comments(source):
        if raw_spec is None:
            if ran == in_scope and line not in used_lines:
                findings.append(
                    Finding(
                        rule=spec.id,
                        severity=spec.severity_for(path),
                        path=path,
                        line=line,
                        message=(
                            "bare `# repro: noqa` suppresses nothing "
                            "on this line"
                        ),
                        hint=spec.hint,
                    )
                )
            continue
        ids = _RULE_ID_RE.findall(raw_spec)
        unknown = sorted(i for i in ids if i not in RULES)
        stale = sorted(i for i in ids if i in ran and (line, i) not in used)
        problems: list[str] = []
        if not ids:
            problems.append("no valid rule IDs in the suppression list")
        if unknown:
            problems.append("unknown rule ID(s) " + ", ".join(unknown))
        if stale:
            problems.append(
                ", ".join(stale)
                + (" no longer fires" if len(stale) == 1 else " no longer fire")
                + " on this line"
            )
        if problems:
            findings.append(
                Finding(
                    rule=spec.id,
                    severity=spec.severity_for(path),
                    path=path,
                    line=line,
                    message="; ".join(problems),
                    hint=spec.hint,
                )
            )
    return findings


def lint_paths(
    paths: list[str | Path],
    config: LintConfig | None = None,
    *,
    relative_to: str | Path | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (observed, deterministic).

    ``relative_to`` rewrites finding paths relative to a root (posix
    separators) so reports are machine-independent and diffable.
    REPRO-U001, when active, runs per file after the other rules.
    """
    config = config or LintConfig()
    judge_noqa = UNUSED_NOQA in config.active_rules()
    result = LintResult()
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("analyze.lint"):
        for file_path in iter_python_files(paths):
            report_path = file_path
            if relative_to is not None:
                try:
                    report_path = file_path.resolve().relative_to(
                        Path(relative_to).resolve()
                    )
                except ValueError:
                    report_path = file_path
            try:
                source = file_path.read_text()
            except OSError as exc:
                result.parse_errors.append((str(report_path), str(exc)))
                continue
            posix = Path(report_path).as_posix()
            used: set[tuple[int, str]] = set()
            findings, suppressed = lint_source(source, posix, config, used=used)
            parse_errors = [
                (f.path, f.message) for f in findings if f.rule == "PARSE-ERROR"
            ]
            result.parse_errors.extend(parse_errors)
            if judge_noqa and not parse_errors:
                findings.extend(
                    unused_suppression_findings(posix, source, used, config)
                )
            result.findings.extend(findings)
            result.suppressed += suppressed
            result.files_scanned += 1
        result.findings.sort(key=Finding.sort_key)
        metrics.count("analyze.files", result.files_scanned)
        metrics.count("analyze.findings", len(result.findings))
        metrics.count("analyze.suppressed", result.suppressed)
        for severity in Severity:
            n = sum(
                1 for f in result.findings if f.severity is severity
            )
            if n:
                metrics.count(f"analyze.findings.{severity.value}", n)
    return result
