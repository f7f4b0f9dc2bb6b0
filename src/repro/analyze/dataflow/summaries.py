"""Per-function taint summaries: the lattice and the abstract executor.

The determinism taint pass models four taint kinds:

* ``rng`` — values derived from the shared global RNG, an unseeded
  ``random.Random()``/``numpy default_rng()``, ``uuid4``/``urandom``.
* ``set-order`` — sequences whose *order* came from iterating a set.
* ``fs-order`` — sequences ordered by a filesystem listing.
* ``wall-clock`` — ``time.time()``/``datetime.now()`` readings
  (monotonic/perf_counter are measurement clocks, not sources).

Labels travel through a small abstract interpreter executed over each
function body: assignments, container element-flow (append/comprehension
/iteration), branch joins, and two-pass loop bodies.  Besides concrete
:class:`Taint` labels, two symbolic labels make summaries composable:

* ``ParamFlow(i)`` — the value of parameter *i* flows here.
* ``ParamOrder(i)`` — the *iteration order* of parameter *i* flows
  here (the caller decides whether that order is deterministic).

A function's :class:`Summary` records which labels reach its return
value and which reach a **sink** — route/placement commits,
metrics/quality digests, and checkpoint payloads.  The fixpoint in
:mod:`repro.analyze.dataflow.taint` iterates summaries to convergence
so taint crosses any number of call boundaries in both directions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analyze.dataflow.callgraph import CallIndex, CallSite
from repro.analyze.dataflow.project import FunctionInfo, Project
from repro.analyze.rules import (
    _call_name,
    _is_set_annotation,
    _is_set_expr,
)

# --------------------------------------------------------------- labels


class Taint(NamedTuple):
    """A concrete taint source: what kind, and where it entered."""

    kind: str  # "rng" | "set-order" | "fs-order" | "wall-clock"
    path: str
    line: int
    detail: str


class ParamFlow(NamedTuple):
    index: int


class ParamOrder(NamedTuple):
    index: int


Label = object  # Taint | ParamFlow | ParamOrder

ORDER_KINDS = ("set-order", "fs-order")

_EMPTY: frozenset = frozenset()


def _is_order_label(label: Label) -> bool:
    if isinstance(label, ParamOrder):
        return True
    return isinstance(label, Taint) and label.kind in ORDER_KINDS


def _strip_order(labels: frozenset) -> frozenset:
    return frozenset(l for l in labels if not _is_order_label(l))


# ---------------------------------------------------------------- sinks

#: sink call name (last dotted component) -> category
SINK_NAMES = {
    "apply_route": "commit",
    "move_cell": "commit",
    "routes_digest": "digest",
    "positions_digest": "digest",
    "sha256": "digest",
    "sha1": "digest",
    "md5": "digest",
    "evaluate": "digest",
    "save_boundary": "ckpt",
    "save_checkpoint": "ckpt",
}

#: obs registry methods whose *value* arguments are digest material
_METRIC_METHODS = ("count", "gauge", "observe")

#: sink categories whose mere invocation inside a loop body makes the
#: loop's iteration order observable (the commit-order hazard)
ORDER_SENSITIVE_SINKS = ("commit", "digest", "ckpt")


def sink_of(site: CallSite) -> tuple[str, list[tuple[int | None, ast.expr]]] | None:
    """Classify a call site as a sink: (category, [(arg index, expr)]).

    Index ``None`` marks keyword arguments (matched to parameters only
    when the callee is resolved).
    """
    short = site.dotted.split(".")[-1]
    node = site.node
    args: list[tuple[int | None, ast.expr]] = []
    if short in SINK_NAMES:
        args = [(i, a) for i, a in enumerate(node.args)]
        args += [(None, kw.value) for kw in node.keywords]
        return SINK_NAMES[short], args
    if short in _METRIC_METHODS and isinstance(node.func, ast.Attribute):
        from repro.analyze.rules import _obs_receiver

        if _obs_receiver(node.func.value):
            args = [(i, a) for i, a in enumerate(node.args) if i >= 1]
            args += [(None, kw.value) for kw in node.keywords]
            return "metric", args
    return None


# --------------------------------------------------------------- sources

_FS_LISTING = ("listdir", "iterdir", "glob", "rglob", "scandir")
_ORDER_SAFE = (
    "sorted", "set", "frozenset", "min", "max", "sum", "any", "all", "len",
)
_MUTATORS = ("append", "add", "extend", "insert", "update", "setdefault")


def canonical_call(module_imports: dict[str, str], dotted: str) -> str:
    """Expand the leading import alias: ``np.random.rand`` -> ``numpy...``."""
    if not dotted:
        return dotted
    head, _, rest = dotted.partition(".")
    target = module_imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def source_kind(
    module_imports: dict[str, str], node: ast.Call
) -> tuple[str, str] | None:
    """(taint kind, detail) when this call is a nondeterminism source."""
    canonical = canonical_call(module_imports, _call_name(node))
    short = canonical.split(".")[-1]
    if canonical == "random.Random" or canonical == "random.SystemRandom":
        if not node.args and not node.keywords:
            return "rng", "unseeded random.Random()"
        return None
    if canonical.startswith("random."):
        return "rng", f"global RNG call `{canonical}()`"
    if canonical.startswith("numpy.random."):
        if short == "default_rng" and (node.args or node.keywords):
            return None
        return "rng", f"global NumPy RNG call `{canonical}()`"
    if canonical in ("os.urandom", "uuid.uuid4") or canonical.startswith(
        "secrets."
    ):
        return "rng", f"entropy source `{canonical}()`"
    if canonical == "time.time" or canonical in (
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    ):
        return "wall-clock", f"wall-clock read `{canonical}()`"
    if short in _FS_LISTING:
        return "fs-order", f"filesystem listing `{_call_name(node)}()`"
    return None


# -------------------------------------------------------------- summary


@dataclass(frozen=True, slots=True)
class Summary:
    """Composable facts about one function, for its callers."""

    return_taint: frozenset = _EMPTY  # Taint labels reaching the return
    param_to_return: frozenset = _EMPTY  # param indices whose value returns
    param_order_to_return: frozenset = _EMPTY  # indices iterated into return
    param_sinks: frozenset = _EMPTY  # (index, category) value-into-sink
    param_order_sinks: frozenset = _EMPTY  # (index, category) order-into-sink
    reaches: frozenset = _EMPTY  # sink categories invoked transitively


EMPTY_SUMMARY = Summary()


class Hit(NamedTuple):
    """One taint-to-sink flow, ready to become a finding."""

    label: Taint
    category: str
    sink: str  # human description of the sink call
    func: str  # qualname of the function containing the sink-side call
    path: str  # file of the sink-side call
    line: int  # line of the sink-side call


@dataclass(slots=True)
class FunctionFacts:
    """Everything one abstract execution of a function produced."""

    summary: Summary = field(default_factory=lambda: EMPTY_SUMMARY)
    hits: dict = field(default_factory=dict)  # dedupe key -> Hit


# ------------------------------------------------- the abstract executor


class FunctionAnalysis:
    """Abstractly execute one function body under current summaries."""

    def __init__(
        self,
        info: FunctionInfo,
        project: Project,
        index: CallIndex,
        summaries: dict[str, Summary],
    ) -> None:
        self.info = info
        self.project = project
        self.module = project.modules[info.module]
        self.summaries = summaries
        self.sites: dict[int, CallSite] = {
            id(site.node): site for site in index.calls.get(info.qualname, ())
        }
        self.params: list[str] = [
            a.arg
            for a in (
                info.node.args.posonlyargs
                + info.node.args.args
                + info.node.args.kwonlyargs
            )
        ]
        self.set_names = self._collect_set_names()
        self.returns: set = set()
        self.param_sinks: set = set()
        self.param_order_sinks: set = set()
        self.reaches: set = set()
        self.hits: dict = {}

    # ------------------------------------------------------------ set-ness

    def _collect_set_names(self) -> set[str]:
        """Names that are set-typed in this function (locals + params)."""
        names: set[str] = set()
        args = self.info.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if _is_set_annotation(a.annotation):
                names.add(a.arg)
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(node.value)
                ):
                    names.add(node.target.id)
        return names

    def _is_set_valued(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.set_names

    # ------------------------------------------------------------ driver

    def run(self) -> FunctionFacts:
        env: dict[str, frozenset] = {
            name: frozenset([ParamFlow(i)])
            for i, name in enumerate(self.params)
        }
        self._exec_block(self.info.node.body, env)
        summary = Summary(
            return_taint=frozenset(
                l for l in self.returns if isinstance(l, Taint)
            ),
            param_to_return=frozenset(
                l.index for l in self.returns if isinstance(l, ParamFlow)
            ),
            param_order_to_return=frozenset(
                l.index for l in self.returns if isinstance(l, ParamOrder)
            ),
            param_sinks=frozenset(self.param_sinks),
            param_order_sinks=frozenset(self.param_order_sinks),
            reaches=frozenset(self.reaches),
        )
        facts = FunctionFacts(summary=summary)
        facts.hits = self.hits
        return facts

    # --------------------------------------------------------- statements

    def _exec_block(self, stmts: list[ast.stmt], env: dict) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: dict) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self.etaint(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, labels, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.etaint(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            labels = self.etaint(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = env.get(stmt.target.id, _EMPTY) | labels
            else:
                self._assign(stmt.target, labels, env)
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                self.returns |= self.etaint(stmt.value, env)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                if value.value is not None:
                    self.returns |= self.etaint(value.value, env)
            else:
                self.etaint(value, env)
        elif isinstance(stmt, ast.For):
            self._exec_loop(stmt, env)
        elif isinstance(stmt, ast.While):
            self.etaint(stmt.test, env)
            before = dict(env)
            for _ in range(2):
                self._exec_block(stmt.body, env)
            self._join_into(env, before)
            self._exec_block(stmt.orelse, env)
        elif isinstance(stmt, ast.If):
            self.etaint(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            env.clear()
            env.update(then_env)
            self._join_into(env, else_env)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env)
            for handler in stmt.handlers:
                self._exec_block(handler.body, env)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                labels = self.etaint(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested functions are analyzed as functions of their own
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.etaint(stmt.exc, env)
        elif isinstance(stmt, (ast.Assert,)):
            self.etaint(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

    def _exec_loop(self, stmt: ast.For, env: dict) -> None:
        iter_labels = self.etaint(stmt.iter, env)
        fresh = self._iteration_labels(stmt.iter, iter_labels)
        self._assign(stmt.target, iter_labels | fresh, env)
        self._check_loop_order(stmt, iter_labels | fresh)
        before = dict(env)
        for _ in range(2):
            self._exec_block(stmt.body, env)
        self._join_into(env, before)
        self._exec_block(stmt.orelse, env)

    def _join_into(self, env: dict, other: dict) -> None:
        for key, labels in other.items():
            env[key] = env.get(key, _EMPTY) | labels

    def _assign(self, target: ast.expr, labels: frozenset, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, labels, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels, env)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # a[k] = v / a.x = v taints the base container (element flow)
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                env[base.id] = env.get(base.id, _EMPTY) | labels

    # --------------------------------------------------------- iteration

    def _iteration_labels(
        self, iter_expr: ast.expr, iter_labels: frozenset
    ) -> frozenset:
        """Fresh labels created by iterating ``iter_expr`` unsorted."""
        fresh: set = set()
        if self._is_set_valued(iter_expr):
            fresh.add(
                Taint(
                    "set-order",
                    self.info.path,
                    getattr(iter_expr, "lineno", 0),
                    "unsorted set iteration",
                )
            )
        for label in iter_labels:
            if isinstance(label, ParamFlow):
                fresh.add(ParamOrder(label.index))
        return frozenset(fresh)

    def _body_sink_categories(self, loop: ast.AST) -> set[str]:
        """Order-sensitive sink categories the loop body can reach."""
        categories: set[str] = set()
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            site = self.sites.get(id(node))
            if site is None:
                continue
            sink = sink_of(site)
            if sink is not None and sink[0] in ORDER_SENSITIVE_SINKS:
                categories.add(sink[0])
            if site.callee is not None:
                summary = self.summaries.get(site.callee, EMPTY_SUMMARY)
                categories |= {
                    cat
                    for cat in summary.reaches
                    if cat in ORDER_SENSITIVE_SINKS
                }
        return categories

    def _check_loop_order(self, loop: ast.For, labels: frozenset) -> None:
        """An unordered iteration whose body commits leaks its order."""
        order_labels = [
            l for l in labels if isinstance(l, Taint) and l.kind in ORDER_KINDS
        ]
        param_orders = [l for l in labels if isinstance(l, ParamOrder)]
        if not order_labels and not param_orders:
            return
        for category in sorted(self._body_sink_categories(loop)):
            for label in order_labels:
                self._record_hit(
                    label,
                    category,
                    "loop-body state mutation",
                    loop.lineno,
                )
            for label in param_orders:
                self.param_order_sinks.add((label.index, category))

    # ------------------------------------------------------- expressions

    def etaint(self, node: ast.expr, env: dict) -> frozenset:
        """Labels carried by this expression's value (side-effect: hits)."""
        if isinstance(node, ast.Name):
            return env.get(node.id, _EMPTY)
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            return self.etaint(node.value, env)
        if isinstance(node, ast.Subscript):
            return self.etaint(node.value, env) | self.etaint(node.slice, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            out = _EMPTY
            for element in node.elts:
                out |= self.etaint(element, env)
            return out
        if isinstance(node, ast.Set):
            out = _EMPTY
            for element in node.elts:
                out |= self.etaint(element, env)
            return _strip_order(out)
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self.etaint(key, env)
            for value in node.values:
                out |= self.etaint(value, env)
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            labels = self._eval_comp(node, env)
            if isinstance(node, ast.SetComp):
                labels = _strip_order(labels)
            return labels
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, env)
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self.etaint(value, env)
            return out
        if isinstance(node, ast.BinOp):
            return self.etaint(node.left, env) | self.etaint(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self.etaint(node.operand, env)
        if isinstance(node, ast.Compare):
            out = self.etaint(node.left, env)
            for comparator in node.comparators:
                out |= self.etaint(comparator, env)
            return out
        if isinstance(node, ast.IfExp):
            self.etaint(node.test, env)
            return self.etaint(node.body, env) | self.etaint(node.orelse, env)
        if isinstance(node, ast.JoinedStr):
            out = _EMPTY
            for value in node.values:
                out |= self.etaint(value, env)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.etaint(node.value, env)
        if isinstance(node, ast.Starred):
            return self.etaint(node.value, env)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                labels = self.etaint(node.value, env)
                self.returns |= labels
            return _EMPTY
        if isinstance(node, ast.Await):
            return self.etaint(node.value, env)
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, ast.NamedExpr):
            labels = self.etaint(node.value, env)
            self._assign(node.target, labels, env)
            return labels
        return _EMPTY

    def _eval_comp(self, node: ast.expr, env: dict) -> frozenset:
        scratch = dict(env)
        fresh = _EMPTY
        for gen in node.generators:
            glabels = self.etaint(gen.iter, scratch)
            gfresh = self._iteration_labels(gen.iter, glabels)
            fresh |= gfresh
            fresh |= frozenset(l for l in glabels if _is_order_label(l))
            self._assign(gen.target, glabels | gfresh, scratch)
            for cond in gen.ifs:
                self.etaint(cond, scratch)
        if isinstance(node, ast.DictComp):
            out = self.etaint(node.key, scratch) | self.etaint(
                node.value, scratch
            )
        else:
            out = self.etaint(node.elt, scratch)
        return out | fresh

    # -------------------------------------------------------------- calls

    def _eval_call(self, node: ast.Call, env: dict) -> frozenset:
        arg_labels: list[frozenset] = [
            self.etaint(a, env) for a in node.args
        ]
        kw_labels: list[tuple[str | None, frozenset, ast.expr]] = [
            (kw.arg, self.etaint(kw.value, env), kw.value)
            for kw in node.keywords
        ]
        site = self.sites.get(id(node))
        dotted = site.dotted if site is not None else _call_name(node)
        short = dotted.split(".")[-1]

        # container mutators: x.append(v) taints x with v's labels
        if short in _MUTATORS and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name):
                added = _EMPTY
                for labels in arg_labels:
                    added |= labels
                for _, labels, _ in kw_labels:
                    added |= labels
                if added:
                    env[base.id] = env.get(base.id, _EMPTY) | added

        # sinks (both direct and via the resolved callee's summary)
        if site is not None:
            self._check_sink(site, node, arg_labels, kw_labels)

        # sources
        kind = source_kind(self.module.imports, node)
        if kind is not None:
            return frozenset(
                [Taint(kind[0], self.info.path, node.lineno, kind[1])]
            )

        # order sanitizers (rng/wall-clock survive sorting; order dies)
        if short in _ORDER_SAFE and isinstance(node.func, ast.Name):
            out = _EMPTY
            for labels in arg_labels:
                out |= labels
            return _strip_order(out)

        # list()/tuple() of a set materializes hash order
        if (
            short in ("list", "tuple")
            and isinstance(node.func, ast.Name)
            and node.args
            and self._is_set_valued(node.args[0])
        ):
            out = frozenset(
                [
                    Taint(
                        "set-order",
                        self.info.path,
                        node.lineno,
                        f"`{short}()` of a set",
                    )
                ]
            )
            for labels in arg_labels:
                out |= labels
            return out

        callee = site.callee if site is not None else None
        if callee is not None and callee in self.summaries:
            return self._eval_resolved_call(
                node, callee, arg_labels, kw_labels
            )

        # unresolved: conservatively pass argument + receiver taint through
        out = _EMPTY
        for labels in arg_labels:
            out |= labels
        for _, labels, _ in kw_labels:
            out |= labels
        if isinstance(node.func, ast.Attribute):
            out |= self.etaint(node.func.value, env)
        return out

    def _callee_param_index(self, callee: str, name: str | None) -> int | None:
        if name is None:
            return None
        info = self.project.functions.get(callee)
        if info is None:
            return None
        args = info.node.args
        names = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        try:
            return names.index(name)
        except ValueError:
            return None

    def _eval_resolved_call(
        self,
        node: ast.Call,
        callee: str,
        arg_labels: list[frozenset],
        kw_labels: list[tuple[str | None, frozenset, ast.expr]],
    ) -> frozenset:
        summary = self.summaries[callee]
        callee_info = self.project.functions.get(callee)
        offset = 1 if callee_info is not None and callee_info.cls else 0
        result: set = set(summary.return_taint)
        self.reaches |= summary.reaches

        pairs: list[tuple[int | None, frozenset, ast.expr]] = [
            (i + offset, labels, node.args[i])
            for i, labels in enumerate(arg_labels)
        ]
        for name, labels, expr in kw_labels:
            pairs.append(
                (self._callee_param_index(callee, name), labels, expr)
            )

        callee_short = callee.rsplit(".", 1)[-1]
        for index, labels, expr in pairs:
            if index is None:
                continue
            if index in summary.param_to_return:
                result |= labels
            if index in summary.param_order_to_return:
                if self._is_set_valued(expr):
                    result.add(
                        Taint(
                            "set-order",
                            self.info.path,
                            expr.lineno,
                            f"set iterated (unsorted) by `{callee_short}()`",
                        )
                    )
                result |= {l for l in labels if _is_order_label(l)}
            for sink_index, category in summary.param_sinks:
                if sink_index != index:
                    continue
                for label in labels:
                    if isinstance(label, Taint):
                        self._record_hit(
                            label,
                            category,
                            f"`{callee_short}()`",
                            node.lineno,
                        )
                    elif isinstance(label, ParamFlow):
                        self.param_sinks.add((label.index, category))
                    elif isinstance(label, ParamOrder):
                        self.param_order_sinks.add((label.index, category))
            for sink_index, category in summary.param_order_sinks:
                if sink_index != index:
                    continue
                if self._is_set_valued(expr):
                    self._record_hit(
                        Taint(
                            "set-order",
                            self.info.path,
                            expr.lineno,
                            f"set iterated (unsorted) by `{callee_short}()`",
                        ),
                        category,
                        f"`{callee_short}()`",
                        node.lineno,
                    )
                for label in labels:
                    if _is_order_label(label) and isinstance(label, Taint):
                        self._record_hit(
                            label,
                            category,
                            f"`{callee_short}()`",
                            node.lineno,
                        )
                    elif isinstance(label, ParamFlow):
                        self.param_order_sinks.add((label.index, category))
                    elif isinstance(label, ParamOrder):
                        self.param_order_sinks.add((label.index, category))
        return frozenset(result)

    def _check_sink(
        self,
        site: CallSite,
        node: ast.Call,
        arg_labels: list[frozenset],
        kw_labels: list[tuple[str | None, frozenset, ast.expr]],
    ) -> None:
        sink = sink_of(site)
        if sink is None:
            return
        category, _ = sink
        self.reaches.add(category)
        sink_desc = f"`{site.dotted}()`"
        all_labels: list[tuple[frozenset, ast.expr]] = []
        if category == "metric":
            all_labels = [
                (labels, node.args[i])
                for i, labels in enumerate(arg_labels)
                if i >= 1
            ]
        else:
            all_labels = [
                (labels, node.args[i]) for i, labels in enumerate(arg_labels)
            ]
        all_labels += [(labels, expr) for _, labels, expr in kw_labels]
        for labels, _expr in all_labels:
            for label in labels:
                if isinstance(label, Taint):
                    self._record_hit(label, category, sink_desc, node.lineno)
                elif isinstance(label, ParamFlow):
                    self.param_sinks.add((label.index, category))
                elif isinstance(label, ParamOrder):
                    self.param_order_sinks.add((label.index, category))

    def _record_hit(
        self, label: Taint, category: str, sink: str, line: int
    ) -> None:
        key = (label, category, self.info.qualname, line)
        if key not in self.hits:
            self.hits[key] = Hit(
                label=label,
                category=category,
                sink=sink,
                func=self.info.qualname,
                path=self.info.path,
                line=line,
            )
