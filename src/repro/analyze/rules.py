"""The repo-specific AST lint rules (stdlib ``ast``, zero deps).

Every rule has a stable ID, a default severity, a one-line rationale,
and a fix hint.  Rules register themselves in :data:`RULES` via the
:func:`rule` decorator, so adding a rule is one function; per-path
exclusion (e.g. REPRO-D003 skips test files) and severity escalation
live on the :class:`Rule` record and are applied by
:mod:`repro.analyze.linter`.

Rule families:

* ``REPRO-D*`` — determinism hazards (the CR&P results in Table III are
  only reproducible if routing/placement decisions are bit-stable).
* ``REPRO-G*`` — guard hazards (handlers that can swallow an error
  before stage isolation reports it, wall-clock timing).
* ``REPRO-O*`` — observability conventions (span/metric names).
* ``REPRO-C*`` — classics (mutable defaults, shadowed builtins).
* ``REPRO-R*`` — robustness (durability of on-disk artifacts; a crash
  mid-write must never leave a truncated report or trace behind).
* ``REPRO-U001`` — a ``# repro: noqa`` that no longer suppresses
  anything; it has no checker, the linter judges it per file after
  every active rule has run.

Suppress one occurrence with ``# repro: noqa:RULE-ID`` on the flagged
line (comma-separate multiple IDs; a bare ``# repro: noqa`` suppresses
every rule on that line).  A justification after an em-dash is
conventional: ``# repro: noqa:REPRO-D003 — bounds come from literals``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analyze.findings import Severity

#: (node-or-line, message) pairs produced by a checker
RawFinding = "tuple[ast.AST | int, str]"


@dataclass(frozen=True, slots=True)
class Rule:
    """Metadata + checker for one lint rule."""

    id: str  # repro: noqa:REPRO-C002 — the rule's public ID field
    severity: Severity
    summary: str
    hint: str
    #: never lint files whose posix path contains one of these fragments
    path_exclude: tuple[str, ...] = ()
    #: escalate severity to ERROR on files matching these fragments
    escalate_paths: tuple[str, ...] = ()

    def applies_to(self, posix_path: str) -> bool:
        return not any(frag in posix_path for frag in self.path_exclude)

    def severity_for(self, posix_path: str) -> Severity:
        if self.escalate_paths and any(
            frag in posix_path for frag in self.escalate_paths
        ):
            return Severity.ERROR
        return self.severity


class ModuleContext:
    """Everything a checker needs about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree


Checker = Callable[[ModuleContext], Iterator[tuple[object, str]]]

RULES: dict[str, Rule] = {}
CHECKERS: dict[str, Checker] = {}

#: directories whose code makes routing/placement decisions — set-order
#: iteration there is an ordering hazard, not a style nit
DECISION_PATHS = (
    "/groute/", "/droute/", "/ilp/", "/core/", "/legalizer/", "/flow/",
)


def rule(
    rule_id: str,
    severity: Severity,
    summary: str,
    hint: str,
    path_exclude: tuple[str, ...] = (),
    escalate_paths: tuple[str, ...] = (),
) -> Callable[[Checker], Checker]:
    """Register a checker; the registry is what makes rules extensible."""

    def register(checker: Checker) -> Checker:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(
            id=rule_id,
            severity=severity,
            summary=summary,
            hint=hint,
            path_exclude=path_exclude,
            escalate_paths=escalate_paths,
        )
        CHECKERS[rule_id] = checker
        return checker

    return register


#: the stale-suppression rule: registered for its severity, hint and
#: rule-table row, but with no entry in CHECKERS
UNUSED_NOQA = "REPRO-U001"
RULES[UNUSED_NOQA] = Rule(
    id=UNUSED_NOQA,
    severity=Severity.WARNING,
    summary="`# repro: noqa` comment no longer suppresses anything",
    hint="delete the stale suppression (or fix the rule ID typo); "
    "stale noqa comments hide future regressions",
)


def rule_table() -> dict[str, str]:
    """Rule ID -> one-line summary (for report documents and docs)."""
    return {rid: spec.summary for rid, spec in sorted(RULES.items())}


# --------------------------------------------------------------- helpers


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target (best effort): ``a.b.c`` or ``f``."""
    parts: list[str] = []
    target: ast.expr = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names bound to ``import module`` (honoring ``as`` aliases)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == module:
                    aliases.add(a.asname or module)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> original name for ``from module import ...``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for a in node.names:
                names[a.asname or a.name] = a.name
    return names


# ---------------------------------------------------- REPRO-D: determinism


@rule(
    "REPRO-D001",
    Severity.ERROR,
    "global or unseeded `random` use breaks run-to-run determinism",
    "thread a seeded `random.Random(seed)` through the call site "
    "(see `CrpConfig.seed` / `DesignSpec.seed`)",
)
def _check_global_random(ctx: ModuleContext):
    aliases = _module_aliases(ctx.tree, "random")
    from_names = _from_imports(ctx.tree, "random")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
        ):
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    yield node, "unseeded random.Random() — seed it explicitly"
            else:
                yield node, (
                    f"random.{func.attr}() uses the shared global RNG"
                )
        elif isinstance(func, ast.Name) and func.id in from_names:
            original = from_names[func.id]
            if original == "Random":
                if not node.args and not node.keywords:
                    yield node, "unseeded Random() — seed it explicitly"
            else:
                yield node, (
                    f"random.{original}() (imported as {func.id}) uses the "
                    "shared global RNG"
                )


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically set-valued: literal, set()/frozenset(), comp, algebra."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_set_annotation(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in (
        "set", "frozenset", "Set", "FrozenSet",
    )


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope's nodes, pruning nested function bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _iterated_exprs(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.For):
        yield node.iter
    elif isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        for gen in node.generators:
            yield gen.iter


#: consuming a set through these is order-independent by construction
_ORDER_SAFE_CALLS = frozenset(
    ("sorted", "set", "frozenset", "min", "max", "sum", "any", "all", "len")
)


def _order_safe_comps(scope: ast.AST) -> set[int]:
    """ids of comprehensions fed straight into an order-safe call."""
    safe: set[int] = set()
    for node in _scope_walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SAFE_CALLS
        ):
            for arg in node.args:
                if isinstance(
                    arg,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp),
                ):
                    safe.add(id(arg))
    return safe


@rule(
    "REPRO-D002",
    Severity.WARNING,
    "iteration order over a set is hash-dependent; feeding it into a "
    "routing/placement decision is nondeterministic",
    "iterate `sorted(the_set)` (or restructure so order cannot matter)",
    escalate_paths=DECISION_PATHS,
)
def _check_set_iteration(ctx: ModuleContext):
    # Track local names bound to set-valued expressions or annotations,
    # one scope at a time (module scope counts as one scope); deliberately
    # NOT tracking parameters — set-typed args are often consumed
    # order-independently (unions, min/max) and would drown real hits.
    scopes: list[ast.AST] = [ctx.tree] + [
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        set_names: set[str] = set()
        for node in _scope_walk(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(node.value)
                ):
                    set_names.add(node.target.id)
        safe_comps = _order_safe_comps(scope)
        for node in _scope_walk(scope):
            if id(node) in safe_comps:
                continue
            for it in _iterated_exprs(node):
                if _is_set_expr(it):
                    yield it, "iterating a set expression directly"
                elif isinstance(it, ast.Name) and it.id in set_names:
                    yield it, f"iterating set-typed local `{it.id}`"


@rule(
    "REPRO-D003",
    Severity.ERROR,
    "float equality (`==`/`!=`) is representation-dependent",
    "compare with an explicit tolerance: `abs(x - y) <= eps` or "
    "`math.isclose`; for zero tests use `abs(x) <= eps` or `x <= 0.0`",
    path_exclude=("tests/", "/test_", "conftest"),
)
def _check_float_equality(ctx: ModuleContext):
    def is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if is_float_literal(operands[i]) or is_float_literal(
                operands[i + 1]
            ):
                yield node, "float literal compared with ==/!="


@rule(
    "REPRO-D004",
    Severity.WARNING,
    "filesystem listing order is platform-dependent",
    "wrap the listing in `sorted(...)` before iterating",
)
def _check_fs_order(ctx: ModuleContext):
    listing_attrs = ("iterdir", "glob", "rglob", "listdir", "scandir")

    def is_listing_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _call_name(node)
        return name.split(".")[-1] in listing_attrs

    for node in ast.walk(ctx.tree):
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if is_listing_call(it):
                yield it, f"iterating `{_call_name(it)}()` without sorting"


# --------------------------------------------------------- REPRO-G: guard


_BROAD_EXCEPTIONS = ("Exception", "BaseException")


@rule(
    "REPRO-G002",
    Severity.ERROR,
    "bare/overbroad `except` swallows any error before stage isolation "
    "reports it",
    "catch the specific exception or re-raise; turning any exception into "
    "a `FailureReport` is `flow.pipeline._stage`'s job",
)
def _check_broad_except(ctx: ModuleContext):
    def exception_names(type_node: ast.expr | None) -> list[str]:
        if type_node is None:
            return []
        nodes = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        names = []
        for n in nodes:
            if isinstance(n, ast.Attribute):
                names.append(n.attr)
            elif isinstance(n, ast.Name):
                names.append(n.id)
        return names

    def reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(n, ast.Raise) for n in ast.walk(handler)
        )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            names = exception_names(handler.type)
            if handler.type is None:
                if not reraises(handler):
                    yield handler, "bare `except:` swallows every exception"
            elif any(name in _BROAD_EXCEPTIONS for name in names):
                if not reraises(handler):
                    yield handler, (
                        "`except "
                        + "/".join(n for n in names if n in _BROAD_EXCEPTIONS)
                        + "` without re-raise swallows any error before "
                        "stage isolation reports it"
                    )


@rule(
    "REPRO-G003",
    Severity.WARNING,
    "`time.time()` is wall-clock and jumps on NTP adjustment",
    "use `time.monotonic()` or `time.perf_counter()` for measurements",
)
def _check_wall_clock(ctx: ModuleContext):
    aliases = _module_aliases(ctx.tree, "time")
    from_names = _from_imports(ctx.tree, "time")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
        ):
            yield node, "time.time() used for timing logic"
        elif (
            isinstance(func, ast.Name)
            and from_names.get(func.id) == "time"
        ):
            yield node, (
                f"time.time() (imported as {func.id}) used for timing logic"
            )


# -------------------------------------------------- REPRO-O: observability

_OBS_METHODS = ("span", "count", "gauge", "observe")
_OBS_RECEIVER_NAMES = ("metrics", "tracer", "obs")
_OBS_FACTORIES = ("get_metrics", "get_tracer")
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[A-Za-z0-9_\-]+)+$")
_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*\.([A-Za-z0-9_\-]+\.)*[A-Za-z0-9_\-]*$")


def _obs_receiver(node: ast.expr) -> bool:
    """Does this expression look like a metrics registry or tracer?"""
    if isinstance(node, ast.Name):
        return node.id in _OBS_RECEIVER_NAMES or node.id.endswith(
            ("metrics", "tracer")
        )
    if isinstance(node, ast.Attribute):
        return node.attr in _OBS_RECEIVER_NAMES or node.attr.endswith(
            ("metrics", "tracer")
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _OBS_FACTORIES
    return False


@rule(
    "REPRO-O001",
    Severity.ERROR,
    "span/metric name must follow the `<layer>.<event>` obs convention",
    "use a lowercase dotted name (`groute.maze_calls`, `flow.GR`); see "
    "README \"Observability\"",
)
def _check_obs_names(ctx: ModuleContext):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _OBS_METHODS
            and _obs_receiver(func.value)
        ):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _NAME_RE.match(arg.value):
                yield arg, (
                    f"obs name {arg.value!r} does not match "
                    "`<layer>.<event>`"
                )
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            first = arg.values[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                prefix = first.value
                if "." in prefix and not _PREFIX_RE.match(prefix):
                    yield arg, (
                        f"obs name prefix {prefix!r} does not match "
                        "`<layer>.<event>`"
                    )


# ----------------------------------------------------- REPRO-C: classics


@rule(
    "REPRO-C001",
    Severity.ERROR,
    "mutable default argument is shared across calls",
    "default to `None` and create the container in the body, or use "
    "`dataclasses.field(default_factory=...)`",
)
def _check_mutable_defaults(ctx: ModuleContext):
    mutable_calls = ("list", "dict", "set", "defaultdict")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_calls
            )
            if bad:
                yield default, (
                    f"mutable default argument in `{node.name}()`"
                )


#: builtins worth protecting — shadowing these has bitten real routers
_SHADOWABLE = frozenset(
    (
        "list", "dict", "set", "tuple", "str", "int", "float", "bool",
        "id", "type", "input", "len", "max", "min", "sum", "map",
        "filter", "next", "range", "sorted", "hash", "vars", "bytes",
        "all", "any", "iter", "open", "print", "dir", "bin", "format",
    )
)


@rule(
    "REPRO-C002",
    Severity.WARNING,
    "assignment shadows a Python builtin",
    "rename the variable (e.g. `id` -> `ident`, `type` -> `kind`)",
)
def _check_shadowed_builtins(ctx: ModuleContext):
    # Methods live in class namespaces, so `Lexer.next()` shadows nothing.
    methods: set[int] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(id(member))
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in _SHADOWABLE:
                yield node, f"`{node.id}` shadows the builtin"
        elif isinstance(node, ast.arg) and node.arg in _SHADOWABLE:
            yield node, f"parameter `{node.arg}` shadows the builtin"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _SHADOWABLE and id(node) not in methods:
                yield node, f"function `{node.name}` shadows the builtin"


# ------------------------------------------------- REPRO-R: robustness

#: serializer calls whose output landing in a plain write is a
#: torn-file hazard (a crash mid-write truncates the artifact)
_SERIALIZE_DUMPS = frozenset(("json.dumps", "pickle.dumps"))
_SERIALIZE_DUMP = frozenset(("json.dump", "pickle.dump"))
_DURABLE_SUFFIXES = (".json", ".ckpt")
_DURABLE_FRAGMENTS = ("ckpt", "checkpoint")


def _contains_serializer(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_name(sub) in _SERIALIZE_DUMPS:
            return True
    return False


def _durable_path_constant(node: ast.expr) -> bool:
    """Does this expression mention a `.json`/checkpoint path literal?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            value = sub.value.lower()
            if value.endswith(_DURABLE_SUFFIXES) or any(
                frag in value for frag in _DURABLE_FRAGMENTS
            ):
                return True
    return False


@rule(
    "REPRO-R001",
    Severity.ERROR,
    "non-atomic write of a JSON/checkpoint artifact; a crash mid-write "
    "leaves a truncated file that poisons the next consumer",
    "write through `repro.ckpt.atomic_write(path, data)` (temp file in "
    "the target directory + fsync + `os.rename`)",
    path_exclude=("/ckpt/atomic",),
)
def _check_non_atomic_writes(ctx: ModuleContext):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        short = name.split(".")[-1]
        if short in ("write_text", "write_bytes") and any(
            _contains_serializer(arg) for arg in node.args
        ):
            yield node, (
                f"`.{short}()` of serialized data is not atomic"
            )
        elif name in _SERIALIZE_DUMP and len(node.args) >= 2:
            yield node, (
                f"`{name}()` streams into an open handle; a crash "
                "mid-stream truncates the file"
            )
        elif (
            (short == "open" or name == "open")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value in ("w", "wb")
            and _durable_path_constant(node.args[0])
        ):
            yield node, (
                "`open(..., \"w\")` on a JSON/checkpoint path is not "
                "atomic"
            )
