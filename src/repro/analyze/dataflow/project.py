"""Module-resolved project model: files -> modules -> functions -> calls.

The interprocedural passes need a *whole-program* view that the
per-file linter deliberately avoids: which function a call lands in,
whether a loop's callee eventually polls the deadline stack.
:class:`Project` parses every file once, assigns dotted module names
(``src/repro/groute/router.py`` -> ``repro.groute.router``), indexes
functions by qualified name (``repro.groute.router.GlobalRouter.
route_all``), and resolves call expressions back to those qualified
names.

Resolution is *best-effort and unsound by design* (documented in
DESIGN.md): it follows imports (including ``as`` aliases and
function-level imports), local and nested functions, ``self.``/``cls.``
method calls within the defining class, and — for attribute calls like
``router.route_all()`` — a light local type inference: constructor
assignments (``router = GlobalRouter(design)``), parameter/variable
annotations (including string annotations and ``X | None`` unions),
``self.attr`` assignments inside a class, and cross-object attribute
stores whose both sides have known types (``design.gcell_grid = spec``).
A unique-bare-name heuristic catches the remainder: when exactly one
project function has that name (and the name is not generic), the call
resolves to it.  Ambiguous or foreign (stdlib) calls stay unresolved
and the dataflow passes treat them conservatively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.rules import _call_name

#: an inferred nominal type: (module name, class name)
ClassKey = tuple[str, str]

#: bare method names too generic for the unique-name heuristic — these
#: collide with stdlib container/queue/thread APIs, so a lone project
#: function with one of these names must not capture every `obj.get()`
GENERIC_NAMES = frozenset(
    (
        "get", "put", "set", "add", "pop", "append", "extend", "update",
        "insert", "remove", "clear", "copy", "sort", "reverse", "index",
        "count", "join", "split", "start", "close", "open", "read",
        "write", "run", "next", "send", "keys", "values", "items",
        "wait", "release", "acquire", "is_set", "empty", "full",
        "format", "strip", "encode", "decode", "render",
    )
)


@dataclass(slots=True)
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str  # "<module>.<Class>.<name>" or "<module>.<name>"
    module: str
    path: str  # posix report path of the defining file
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  # enclosing class name, for methods
    parent: str | None = None  # enclosing function qualname, for nested defs
    #: local name -> qualname of functions nested directly inside
    nested: dict[str, str] = field(default_factory=dict)

    @property
    def bare_name(self) -> str:
        return self.node.name


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source module."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: local name -> dotted import target ("np" -> "numpy")
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level callable name -> qualname (functions only)
    top_functions: dict[str, str] = field(default_factory=dict)
    #: class name -> {method name -> qualname}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)


def _module_name(file_path: Path, roots: list[Path]) -> str:
    """Dotted module name for ``file_path`` relative to the scan roots.

    A ``src`` component marks a layout root; otherwise the innermost
    scan root anchors the name.  ``pkg/__init__.py`` names ``pkg``.
    """
    resolved = file_path.resolve()
    rel: Path | None = None
    for root in sorted(roots, key=lambda r: -len(str(r))):
        try:
            rel = resolved.relative_to(root.resolve())
            break
        except ValueError:
            continue
    if rel is None:
        rel = Path(file_path.name)
    parts = list(rel.with_suffix("").parts)
    while "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel.stem


def _own_function_nodes(func: ast.AST):
    """Walk a function's own nodes, pruning nested function bodies."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _collect_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    """Local binding -> dotted target, for every import in the module.

    Function-level imports are hoisted to module granularity — an
    overapproximation that keeps resolution simple and errs toward
    resolving more calls, never fewer.
    """
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                out[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module_name.split(".")
                # level 1 = current package, 2 = its parent, ...
                anchor = anchor[: len(anchor) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return out


class Project:
    """Whole-program index: modules, functions, and call resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_path: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._by_bare: dict[str, list[str]] = {}
        self.parse_errors: list[tuple[str, str]] = []
        #: class name -> [(module, class)] across the whole project
        self._classes_by_name: dict[str, list[ClassKey]] = {}
        #: (module, class) -> {attr name -> inferred (module, class)}
        self.attr_types: dict[ClassKey, dict[str, ClassKey]] = {}
        #: function qualname -> {local name -> inferred (module, class)}
        self._local_types: dict[str, dict[str, ClassKey]] = {}

    # ------------------------------------------------------------- loading

    @classmethod
    def load(
        cls,
        files: list[Path],
        *,
        relative_to: str | Path | None = None,
    ) -> "Project":
        project = cls()
        roots = [Path(relative_to)] if relative_to is not None else [Path(".")]
        for file_path in sorted(files):
            report_path = file_path
            if relative_to is not None:
                try:
                    report_path = file_path.resolve().relative_to(
                        Path(relative_to).resolve()
                    )
                except ValueError:
                    report_path = file_path
            posix = Path(report_path).as_posix()
            try:
                source = file_path.read_text()
                tree = ast.parse(source, filename=str(file_path))
            except (OSError, SyntaxError) as exc:
                project.parse_errors.append((posix, str(exc)))
                continue
            name = _module_name(file_path, roots)
            module = ModuleInfo(
                name=name, path=posix, source=source, tree=tree
            )
            module.imports = _collect_imports(tree, name)
            project._index_module(module)
            project.modules[name] = module
            project.modules_by_path[posix] = module
        project._infer_types()
        return project

    def _index_module(self, module: ModuleInfo) -> None:
        def register(info: FunctionInfo) -> None:
            self.functions[info.qualname] = info
            self._by_bare.setdefault(info.bare_name, []).append(info.qualname)

        def walk_body(
            body: list[ast.stmt],
            prefix: str,
            cls: str | None,
            parent: FunctionInfo | None,
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=module.name,
                        path=module.path,
                        node=stmt,
                        cls=cls,
                        parent=parent.qualname if parent else None,
                    )
                    register(info)
                    if parent is not None:
                        parent.nested[stmt.name] = qual
                    if cls is None and parent is None:
                        module.top_functions[stmt.name] = qual
                    if cls is not None and parent is None:
                        module.classes.setdefault(cls, {})[stmt.name] = qual
                    walk_body(stmt.body, qual, None, info)
                elif isinstance(stmt, ast.ClassDef):
                    if parent is None and cls is None:
                        module.classes.setdefault(stmt.name, {})
                        self._classes_by_name.setdefault(
                            stmt.name, []
                        ).append((module.name, stmt.name))
                        walk_body(
                            stmt.body, f"{prefix}.{stmt.name}", stmt.name, None
                        )

        walk_body(module.tree.body, module.name, None, None)

    # ------------------------------------------------------ type inference

    def resolve_class(self, module: ModuleInfo, dotted: str) -> ClassKey | None:
        """Resolve a (possibly dotted) class reference to its defining
        module, chasing package re-exports."""
        if not dotted:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in module.classes:
                return (module.name, name)
            target = module.imports.get(name)
            if target is not None:
                return self._class_from_full(target)
            keys = self._classes_by_name.get(name, ())
            if len(keys) == 1:
                return keys[0]
            return None
        head, rest = parts[0], ".".join(parts[1:])
        target = module.imports.get(head)
        full = f"{target}.{rest}" if target is not None else dotted
        return self._class_from_full(full)

    def _class_from_full(self, full: str, _depth: int = 0) -> ClassKey | None:
        """Match ``pkg.mod.Class`` against known classes, chasing the
        ``from .mod import Class`` re-export chain through ``__init__``s."""
        if _depth > 8 or "." not in full:
            return None
        mod_name, cls_name = full.rsplit(".", 1)
        mod = self.modules.get(mod_name)
        if mod is None:
            return None
        if cls_name in mod.classes:
            return (mod_name, cls_name)
        target = mod.imports.get(cls_name)
        if target is not None and target != full:
            return self._class_from_full(target, _depth + 1)
        return None

    def _annotation_class(
        self, module: ModuleInfo, ann: ast.expr | None
    ) -> ClassKey | None:
        """Class named by an annotation: handles strings, ``Optional[X]``
        subscripts, and ``X | None`` unions."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Name):
            return self.resolve_class(module, ann.id)
        if isinstance(ann, ast.Attribute):
            parts: list[str] = []
            node: ast.expr = ann
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
                return self.resolve_class(module, ".".join(reversed(parts)))
            return None
        if isinstance(ann, ast.Subscript):
            base = ann.value
            if isinstance(base, ast.Name) and base.id == "Optional":
                return self._annotation_class(module, ann.slice)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_class(
                module, ann.left
            ) or self._annotation_class(module, ann.right)
        return None

    def _value_class(
        self,
        module: ModuleInfo,
        locals_map: dict[str, ClassKey],
        value: ast.expr,
    ) -> ClassKey | None:
        """Type of an assigned value: a constructor call or a typed name."""
        if isinstance(value, ast.Call):
            return self.resolve_class(module, _call_name(value))
        if isinstance(value, ast.Name):
            return locals_map.get(value.id)
        return None

    def _infer_types(self) -> None:
        """Populate per-function local types and per-class attr types.

        Pass 1 seeds locals from parameter annotations, ``self``, and
        constructor assignments, and collects ``self.attr`` types.
        Pass 2 handles cross-object stores (``design.gcell_grid = spec``)
        once every function's locals are known.  First writer (in
        sorted function order) wins, which keeps the maps deterministic.
        """
        own_stmts: dict[str, list[ast.stmt]] = {}
        for info in self.functions_sorted():
            module = self.modules[info.module]
            locals_map: dict[str, ClassKey] = {}
            if info.cls is not None:
                locals_map["self"] = (info.module, info.cls)
            args = info.node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                key = self._annotation_class(module, a.annotation)
                if key is not None:
                    locals_map[a.arg] = key
            stmts = [
                n
                for n in _own_function_nodes(info.node)
                if isinstance(n, (ast.Assign, ast.AnnAssign))
            ]
            own_stmts[info.qualname] = stmts
            for stmt in stmts:
                if isinstance(stmt, ast.AnnAssign):
                    key = self._annotation_class(module, stmt.annotation)
                    if key is None and stmt.value is not None:
                        key = self._value_class(module, locals_map, stmt.value)
                    targets = [stmt.target]
                else:
                    key = self._value_class(module, locals_map, stmt.value)
                    targets = list(stmt.targets)
                if key is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        locals_map.setdefault(target.id, key)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and info.cls is not None
                    ):
                        self.attr_types.setdefault(
                            (info.module, info.cls), {}
                        ).setdefault(target.attr, key)
            self._local_types[info.qualname] = locals_map
        # pass 2: `obj.attr = value` where both obj and value are typed
        for info in self.functions_sorted():
            module = self.modules[info.module]
            locals_map = self._local_types[info.qualname]
            for stmt in own_stmts[info.qualname]:
                if not isinstance(stmt, ast.Assign):
                    continue
                key = self._value_class(module, locals_map, stmt.value)
                if key is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id != "self"
                        and target.value.id in locals_map
                    ):
                        self.attr_types.setdefault(
                            locals_map[target.value.id], {}
                        ).setdefault(target.attr, key)

    def _method_of(self, key: ClassKey, name: str) -> str | None:
        mod = self.modules.get(key[0])
        if mod is None:
            return None
        return mod.classes.get(key[1], {}).get(name)

    def _resolve_typed(
        self, caller: FunctionInfo | None, parts: list[str]
    ) -> str | None:
        """Resolve ``obj.attr...method()`` through inferred local types."""
        if caller is None or len(parts) < 2:
            return None
        locals_map = self._local_types.get(caller.qualname, {})
        key = locals_map.get(parts[0])
        for attr in parts[1:-1]:
            if key is None:
                return None
            key = self.attr_types.get(key, {}).get(attr)
        if key is None:
            return None
        return self._method_of(key, parts[-1])

    # ---------------------------------------------------------- resolution

    def resolve_dotted(self, module: ModuleInfo, dotted: str) -> str | None:
        """Resolve an import-rooted dotted name to a function qualname."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._lookup_qualified(full)

    def _lookup_qualified(self, full: str) -> str | None:
        """Match a fully dotted path against known functions/methods."""
        if full in self.functions:
            return full
        # "<module>.<Class>" as a call means the constructor.
        parts = full.rsplit(".", 1)
        if len(parts) == 2:
            mod = self.modules.get(parts[0])
            if mod is not None and parts[1] in mod.classes:
                init = mod.classes[parts[1]].get("__init__")
                return init
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        caller: FunctionInfo | None,
        call: ast.Call,
    ) -> str | None:
        """Qualified name of the function this call lands in, if known."""
        return self.resolve_path(module, caller, _call_name(call))

    def resolve_path(
        self,
        module: ModuleInfo,
        caller: FunctionInfo | None,
        dotted: str,
    ) -> str | None:
        """Shared resolution over a dotted name (see class docstring)."""
        if not dotted:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            name = parts[0]
            # nested function in the enclosing chain
            scope = caller
            while scope is not None:
                if name in scope.nested:
                    return scope.nested[name]
                scope = (
                    self.functions.get(scope.parent) if scope.parent else None
                )
            # sibling method called bare inside a class body? (rare) — skip
            if name in module.top_functions:
                return module.top_functions[name]
            if name in module.classes:
                return module.classes[name].get("__init__")
            resolved = self.resolve_dotted(module, name)
            if resolved is not None:
                return resolved
            return self._unique_bare(name)
        if parts[0] in ("self", "cls") and caller is not None and caller.cls:
            methods = module.classes.get(caller.cls, {})
            if len(parts) == 2 and parts[1] in methods:
                return methods[parts[1]]
        resolved = self._resolve_typed(caller, parts)
        if resolved is not None:
            return resolved
        resolved = self.resolve_dotted(module, dotted)
        if resolved is not None:
            return resolved
        return self._unique_bare(parts[-1])

    def _unique_bare(self, name: str) -> str | None:
        """The one project function with this bare name, if unambiguous."""
        if name in GENERIC_NAMES or name.startswith("__"):
            return None
        candidates = self._by_bare.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------ queries

    def functions_sorted(self) -> list[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]

    def functions_named(self, bare: str) -> list[str]:
        """Every qualname whose final component is ``bare`` (sorted)."""
        return sorted(self._by_bare.get(bare, ()))
