"""The program model: modules, import edges, call refs, effect sites.

:func:`build_program` turns parsed source files into a
:class:`Program` — the shared substrate every whole-program rule walks.
The model is deliberately *name-based* (no type inference): a call is
resolved through the module's import aliases and its own definitions,
method calls resolve through ``self`` within the defining module, and
attribute calls on objects of unknown class resolve to nothing.  That
makes the analysis an under-approximation — it misses effects routed
through stored callbacks or duck-typed receivers — which is the right
bias for a lint gate: everything it reports is a real static path.

Import edges carry a *kind*:

* ``eager`` — a top-level (or class-body) import, executed at import
  time;
* ``lazy`` — a function-local import, executed when the function runs;
* ``reexport`` — a deferred module-``__getattr__`` re-export (the
  ``_LAZY``/``_DEFERRED_EXPORTS`` dict idiom), executed only when
  someone touches the name;
* ``typing`` — inside ``if TYPE_CHECKING:``, never executed.

Layer and effect traversals walk ``eager``+``lazy`` only: a deferred
re-export is API surface, not a dependency of the module holding it —
but a *consumer* that from-imports the deferred name gets a direct
resolved edge to the defining module, so the dependency is charged to
whoever actually takes it.

The scanner in this module is the **only** code in the lint that
decides what counts as an effect: which ``time``/``datetime``/
``random``/``os``/``io``/``pathlib``/``asyncio`` calls and which
``socket``/``subprocess``/``multiprocessing``/``numpy`` imports are
sites.  The effect contracts (:mod:`repro.analysis.graph.effects`)
only say who may own a kind of site and who may reach it, so the
direct rules (DQD01/02, DQL05–07), the reach rules (DQG02–04) and
``tests/analysis/test_wallclock_sites.py`` cannot disagree about what
a wall-clock read or a filesystem write is.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import RuleDoc, Violation

__all__ = [
    "EDGE_EAGER",
    "EDGE_LAZY",
    "EDGE_REEXPORT",
    "EDGE_TYPING",
    "EffectSite",
    "ImportEdge",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "GraphRule",
    "build_program",
    "module_name_for",
    "under_any",
]

EDGE_EAGER = "eager"
EDGE_LAZY = "lazy"
EDGE_REEXPORT = "reexport"
EDGE_TYPING = "typing"

#: Pseudo-function holding a module's import-time statements.
MODULE_BODY = "<module>"

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "sleep",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_FS_OS_CALLS = frozenset(
    {
        "fsync",
        "open",
        "fdopen",
        "replace",
        "rename",
        "remove",
        "unlink",
        "makedirs",
        "mkdir",
        "rmdir",
        "truncate",
        "ftruncate",
        "link",
        "symlink",
    }
)
_PROC_OS_CALLS = frozenset(
    {
        "fork",
        "forkpty",
        "kill",
        "killpg",
        "popen",
        "system",
        "execv",
        "execve",
        "execvp",
        "execvpe",
        "execl",
        "execle",
        "execlp",
        "execlpe",
        "spawnl",
        "spawnv",
        "spawnve",
        "posix_spawn",
        "wait",
        "waitpid",
    }
)
_PROC_MODULES = ("subprocess", "socket", "multiprocessing")
_ASYNC_PROC_CALLS = frozenset(
    {"create_subprocess_exec", "create_subprocess_shell"}
)
_DATETIME_OWNERS = ("datetime", "datetime.datetime", "datetime.date")
_PATHLIB_WRITES = frozenset(
    {"write_text", "write_bytes", "open", "mkdir", "touch", "unlink"}
)
_PATHLIB_ROOTS = frozenset(
    {
        "pathlib",
        "pathlib.Path",
        "pathlib.PurePath",
        "pathlib.PosixPath",
        "pathlib.WindowsPath",
    }
)
#: Modules whose mere import is a site (root module -> effect kind).
_IMPORT_SITES = {
    **{module: "process" for module in _PROC_MODULES},
    "numpy": "numpy",
}


def under_any(name: str, prefixes: Sequence[str]) -> bool:
    """Dotted-boundary prefix test: ``a.b`` covers ``a.b.c``, not ``a.bc``."""
    return any(name == p or name.startswith(p + ".") for p in prefixes)


@dataclass(frozen=True)
class EffectSite:
    """One primitive effect, anchored where it textually happens.

    A *call* site propagates to every function that can reach it; an
    import-only site (``propagates=False``: the import of a
    process/socket module or of numpy) is charged to the importing
    module alone.
    """

    kind: str  # "wallclock" | "rng" | "fs" | "process" | "numpy"
    module: str  # dotted repro module holding the site
    line: int
    col: int
    what: str  # e.g. "time.sleep()", "import of socket" — for diagnostics
    propagates: bool = True


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, charged to the function containing it."""

    src: str
    dst: str
    kind: str  # EDGE_* above
    func: str  # qualname of the containing function (MODULE_BODY at top)
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function/method body (module top level is ``<module>``)."""

    qualname: str
    lineno: int = 0
    #: raw call references, resolved lazily by the effect propagation:
    #: ("local", name) | ("self", attr) | ("mod", dotted, attr)
    calls: List[Tuple] = field(default_factory=list)
    effects: List[EffectSite] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the graph rules need to know about one module."""

    name: str
    display: str  # the path string used in diagnostics / baseline keys
    node: ast.Module
    is_package: bool
    edges: List[ImportEdge] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local name -> (defining module, original name) for from-imports
    #: and deferred ``__getattr__`` exports; used to chase re-exports.
    export_origin: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: local alias -> dotted module for plain imports.
    module_aliases: Dict[str, str] = field(default_factory=dict)


class Program:
    """A parsed set of ``repro.*`` modules plus resolved import edges."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules

    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def chase_export(
        self, module: str, name: str, _depth: int = 8
    ) -> Tuple[str, Optional[str]]:
        """The ``(module, attribute)`` that actually defines
        ``module.name``, following from-import and deferred re-export
        chains as far as the program knows them.  The attribute is None
        when the name is bound to a submodule, not a member."""
        for _ in range(_depth):
            if f"{module}.{name}" in self.modules:
                return f"{module}.{name}", None
            info = self.modules.get(module)
            origin = info.export_origin.get(name) if info else None
            if origin is None:
                break
            module, name = origin
        return module, name


class GraphRule:
    """Base for whole-program rules: one pass over a :class:`Program`.

    Unlike :class:`~repro.analysis.rules.Rule` there is no per-file
    ``scope`` — a graph rule sees every module and anchors each
    violation at the import/call that starts the offending path, so the
    engine's suppression comments and baseline keys work unchanged.
    """

    id: str = ""
    title: str = ""

    def docs(self) -> Tuple[RuleDoc, ...]:
        """The catalogue entries for the ids this rule can report."""
        return (RuleDoc(self.id, self.title, self.__doc__ or ""),)

    def check_program(self, program: Program) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self,
        display: str,
        line: int,
        col: int,
        message: str,
        witness: Tuple[str, ...] = (),
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=display,
            line=line,
            col=col,
            message=message,
            witness=witness,
        )


def module_name_for(parts: Sequence[str]) -> Optional[str]:
    """Dotted ``repro.*`` name for a path's parts, or None.

    Uses the *last* ``repro`` directory segment so both the shipped
    tree (``src/repro/core/pdq.py``) and test fixtures
    (``tmp.../repro/core/mod.py``) resolve identically.
    """
    parts = tuple(parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    dirs = parts[:-1]
    idx = None
    for i, part in enumerate(dirs):
        if part == "repro":
            idx = i
    if idx is None:
        return None
    stem = parts[-1][: -len(".py")]
    segments = list(dirs[idx:])
    if stem != "__init__":
        segments.append(stem)
    return ".".join(segments)


# -- the builder -------------------------------------------------------------


def build_program(
    files: Sequence[Tuple[str, Sequence[str], ast.Module]]
) -> Program:
    """Build a :class:`Program` from ``(display, path_parts, ast)`` files.

    Files whose parts contain no ``repro`` package segment (tests,
    benchmarks, scripts) are skipped: they are not part of the library's
    layer graph.
    """
    modules: Dict[str, ModuleInfo] = {}
    for display, parts, node in files:
        name = module_name_for(parts)
        if name is None:
            continue
        info = ModuleInfo(
            name=name,
            display=display,
            node=node,
            is_package=tuple(parts)[-1] == "__init__.py",
        )
        modules[name] = info
    program = Program(modules)
    pending: List[Tuple[ModuleInfo, str, str, str, int, int]] = []
    for info in modules.values():
        _scan_module(info, pending)
    _link_member_imports(program, pending)
    return program


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _ModuleScanner:
    """One recursive AST walk collecting edges, calls, and effect sites."""

    def __init__(self, info: ModuleInfo, pending: List[Tuple]):
        self.info = info
        self.pending = pending
        self.package = (
            info.name if info.is_package else info.name.rsplit(".", 1)[0]
        )
        # Module-wide alias views (union over the whole file), used for
        # effect-site and call classification exactly like ImportMap.
        self.members: Dict[str, Tuple[str, str]] = {}

    # -- import recording ---------------------------------------------------

    def _edge(self, dst: str, kind: str, func: str, node: ast.AST) -> None:
        self.info.edges.append(
            ImportEdge(
                src=self.info.name,
                dst=dst,
                kind=kind,
                func=func,
                line=node.lineno,
                col=node.col_offset,
            )
        )

    def _import_site(self, node: ast.AST, dotted: str, func: str) -> None:
        kind = _IMPORT_SITES.get(dotted.split(".")[0])
        if kind is not None:
            self._site(
                node,
                kind,
                f"import of {dotted}",
                self.info.functions[func],
                propagates=False,
            )

    def record_import(self, node: ast.Import, kind: str, func: str) -> None:
        for alias in node.names:
            self._import_site(node, alias.name, func)
            local = alias.asname or alias.name.split(".")[0]
            self.info.module_aliases[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            # Even without an asname, ``import a.b.c`` executes a.b.c.
            if alias.name == "repro" or alias.name.startswith("repro."):
                self._edge(alias.name, kind, func, node)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base = self.package
        for _ in range(node.level - 1):
            if "." not in base:
                return None
            base = base.rsplit(".", 1)[0]
        if node.module:
            return f"{base}.{node.module}"
        return base

    def record_import_from(
        self, node: ast.ImportFrom, kind: str, func: str
    ) -> None:
        dotted = self._resolve_from(node)
        if dotted is None:
            return
        self._import_site(node, dotted, func)
        for alias in node.names:
            local = alias.asname or alias.name
            if kind == EDGE_TYPING:
                # A typing-only name must not shadow a runtime binding.
                self.members.setdefault(local, (dotted, alias.name))
            else:
                self.members[local] = (dotted, alias.name)
            if func == MODULE_BODY and kind == EDGE_EAGER:
                self.info.export_origin.setdefault(
                    local, (dotted, alias.name)
                )
        if dotted == "repro" or dotted.startswith("repro."):
            self._edge(dotted, kind, func, node)
            if kind == EDGE_TYPING:
                return
            for alias in node.names:
                # ``from pkg import name``: charge the importer with a
                # direct edge to whatever module defines ``name`` (a
                # submodule, or a re-export chased at link time).
                self.pending.append(
                    (
                        self.info,
                        dotted,
                        alias.name,
                        kind,
                        func,
                        node.lineno,
                        node.col_offset,
                    )
                )

    # -- call / effect classification ---------------------------------------

    def _site(
        self,
        node: ast.AST,
        kind: str,
        what: str,
        func: FunctionInfo,
        propagates: bool = True,
    ) -> None:
        func.effects.append(
            EffectSite(
                kind=kind,
                module=self.info.name,
                line=node.lineno,
                col=node.col_offset,
                what=what,
                propagates=propagates,
            )
        )

    @staticmethod
    def _classify(
        node: ast.Call, dotted: str, attr: str
    ) -> Optional[Tuple[str, str]]:
        """(kind, what) when calling ``dotted.attr`` is an effect site."""
        if dotted == "time" and attr in _TIME_FUNCS:
            return "wallclock", f"time.{attr}()"
        if dotted in _DATETIME_OWNERS and attr in _DATETIME_FUNCS:
            return "wallclock", f"datetime.{attr}()"
        if dotted == "random":
            if attr != "Random":
                return "rng", f"random.{attr}()"
            if not node.args and not node.keywords:
                return "rng", "random.Random() unseeded"
            return None  # an explicitly seeded instance
        if dotted == "os" and attr in _FS_OS_CALLS:
            return "fs", f"os.{attr}()"
        if dotted == "io" and attr == "open":
            return "fs", "io.open()"
        if dotted == "os" and attr in _PROC_OS_CALLS:
            return "process", f"os.{attr}()"
        if dotted.split(".")[0] in _PROC_MODULES:
            return "process", f"{dotted}.{attr}()"
        if dotted == "asyncio" and attr in _ASYNC_PROC_CALLS:
            return "process", f"asyncio.{attr}()"
        return None

    def record_call(self, node: ast.Call, func: FunctionInfo) -> None:
        target = node.func
        if isinstance(target, ast.Name):
            origin = self.members.get(target.id)
            if origin is not None:
                self._record_resolved(node, *origin, func)
            elif target.id == "open":
                self._site(node, "fs", "open()", func)
            else:
                func.calls.append(("local", target.id))
        elif isinstance(target, ast.Attribute):
            recv = target.value
            if isinstance(recv, ast.Name) and recv.id == "self":
                func.calls.append(("self", target.attr))
                return
            dotted = self._dotted_of(recv)
            if dotted is not None and self._record_resolved(
                node, dotted, target.attr, func
            ):
                return
            # Path("x").write_text(...) / pathlib.Path.home().mkdir():
            # only receiver chains rooted at a pathlib binding count;
            # the same attribute on an unrelated object is ignored.
            if target.attr in _PATHLIB_WRITES:
                root = recv
                while isinstance(root, (ast.Attribute, ast.Call)):
                    root = (
                        root.func if isinstance(root, ast.Call) else root.value
                    )
                if (
                    isinstance(root, ast.Name)
                    and self.module_of(root.id) in _PATHLIB_ROOTS
                ):
                    self._site(node, "fs", f"pathlib {target.attr}()", func)

    def _record_resolved(
        self,
        node: ast.Call,
        dotted: str,
        attr: str,
        func: FunctionInfo,
    ) -> bool:
        """Record a call of ``dotted.attr``: an effect site, or a call
        reference into another ``repro`` module.  False if neither."""
        site = self._classify(node, dotted, attr)
        if site is not None:
            self._site(node, site[0], site[1], func)
        elif dotted == "repro" or dotted.startswith("repro."):
            func.calls.append(("mod", dotted, attr))
        else:
            return False
        return True

    def _dotted_of(self, expr: ast.AST) -> Optional[str]:
        """Dotted name of a ``Name``/``Attribute`` chain rooted at an
        import binding (``datetime.datetime`` -> ``"datetime.datetime"``)."""
        if isinstance(expr, ast.Name):
            return self.module_of(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._dotted_of(expr.value)
            if base is not None:
                return f"{base}.{expr.attr}"
        return None

    def module_of(self, local: str) -> Optional[str]:
        dotted = self.info.module_aliases.get(local)
        if dotted is not None:
            return dotted
        origin = self.members.get(local)
        if origin is not None:
            dotted, orig = origin
            return f"{dotted}.{orig}"
        return None

    # -- deferred __getattr__ exports ---------------------------------------

    def record_getattr(self, node: ast.FunctionDef) -> None:
        """A module-level ``__getattr__``: its string literals that name
        ``repro.*`` modules are deferred re-exports; any top-level dict
        mapping names to ``(module, attr)`` / ``"module"`` feeds it."""
        targets: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.startswith("repro."):
                    targets.add(sub.value)
        for dotted in sorted(targets):
            self._edge(dotted, EDGE_REEXPORT, MODULE_BODY, node)

    def record_lazy_map(self, node: ast.Assign) -> None:
        """``_LAZY = {"Name": ("repro.x", "attr")}`` (or ``"repro.x"``)
        string-keyed dicts become export_origin entries so consumers of
        the deferred names get direct edges to the defining module."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        value = node.value
        if not isinstance(value, ast.Dict):
            return
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            exported = key.value
            if isinstance(val, ast.Constant) and isinstance(val.value, str):
                if val.value.startswith("repro"):
                    self.info.export_origin.setdefault(
                        exported, (val.value, exported)
                    )
            elif isinstance(val, (ast.Tuple, ast.List)) and len(val.elts) == 2:
                mod_node, attr_node = val.elts
                if (
                    isinstance(mod_node, ast.Constant)
                    and isinstance(mod_node.value, str)
                    and mod_node.value.startswith("repro")
                    and isinstance(attr_node, ast.Constant)
                    and isinstance(attr_node.value, str)
                ):
                    self.info.export_origin.setdefault(
                        exported, (mod_node.value, attr_node.value)
                    )


def _scan_module(info: ModuleInfo, pending: List[Tuple]) -> None:
    scanner = _ModuleScanner(info, pending)
    info.functions[MODULE_BODY] = FunctionInfo(MODULE_BODY, 1)
    _scan_body(
        scanner, info.node.body, qual=MODULE_BODY, class_prefix="", lazy=False
    )


def _scan_body(
    scanner: _ModuleScanner,
    body: Sequence[ast.stmt],
    qual: str,
    class_prefix: str,
    lazy: bool,
) -> None:
    info = scanner.info
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fq = f"{class_prefix}{stmt.name}"
            if qual == MODULE_BODY and stmt.name == "__getattr__" and (
                not class_prefix
            ):
                scanner.record_getattr(stmt)
                continue
            if fq not in info.functions:
                info.functions[fq] = FunctionInfo(fq, stmt.lineno)
            # Decorators and default expressions run in the enclosing
            # scope; the body runs when the function is called.
            for expr in list(stmt.decorator_list) + list(
                stmt.args.defaults
            ) + list(stmt.args.kw_defaults):
                if expr is not None:
                    _scan_exprs(scanner, expr, qual)
            _scan_body(
                scanner, stmt.body, qual=fq, class_prefix=class_prefix,
                lazy=True,
            )
        elif isinstance(stmt, ast.ClassDef):
            prefix = f"{class_prefix}{stmt.name}."
            for expr in stmt.decorator_list + stmt.bases:
                _scan_exprs(scanner, expr, qual)
            _scan_body(
                scanner, stmt.body, qual=qual, class_prefix=prefix, lazy=lazy
            )
        elif isinstance(stmt, ast.Import):
            kind = EDGE_LAZY if lazy else EDGE_EAGER
            scanner.record_import(stmt, kind, qual)
        elif isinstance(stmt, ast.ImportFrom):
            kind = EDGE_LAZY if lazy else EDGE_EAGER
            scanner.record_import_from(stmt, kind, qual)
        elif isinstance(stmt, ast.If) and _is_type_checking_test(stmt.test):
            _scan_typing_block(scanner, stmt.body, qual)
            _scan_body(
                scanner, stmt.orelse, qual=qual, class_prefix=class_prefix,
                lazy=lazy,
            )
        else:
            if (
                qual == MODULE_BODY
                and not class_prefix
                and isinstance(stmt, ast.Assign)
            ):
                scanner.record_lazy_map(stmt)
            _scan_stmt(scanner, stmt, qual, class_prefix, lazy)


def _scan_typing_block(
    scanner: _ModuleScanner, body: Sequence[ast.stmt], qual: str
) -> None:
    """``if TYPE_CHECKING:`` — record aliases for name resolution but
    emit only non-traversable ``typing`` edges."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            scanner.record_import(stmt, EDGE_TYPING, qual)
        elif isinstance(stmt, ast.ImportFrom):
            scanner.record_import_from(stmt, EDGE_TYPING, qual)


def _scan_stmt(
    scanner: _ModuleScanner,
    stmt: ast.stmt,
    qual: str,
    class_prefix: str,
    lazy: bool,
) -> None:
    """A plain statement: collect nested imports/defs/calls recursively."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs (closures, local helpers) fold into the
            # enclosing function: they are almost always called there.
            continue
        if isinstance(node, ast.Import):
            scanner.record_import(node, EDGE_LAZY if lazy else EDGE_EAGER, qual)
        elif isinstance(node, ast.ImportFrom):
            scanner.record_import_from(
                node, EDGE_LAZY if lazy else EDGE_EAGER, qual
            )
        elif isinstance(node, ast.Call):
            func = scanner.info.functions[qual]
            scanner.record_call(node, func)


def _scan_exprs(scanner: _ModuleScanner, expr: ast.AST, qual: str) -> None:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            scanner.record_call(node, scanner.info.functions[qual])


def _link_member_imports(program: Program, pending: List[Tuple]) -> None:
    """Second pass: ``from pkg import name`` edges to defining modules."""
    for info, dotted, name, kind, func, line, col in pending:
        target, _ = program.chase_export(dotted, name)
        if target in (dotted, info.name):
            continue
        info.edges.append(
            ImportEdge(
                src=info.name,
                dst=target,
                kind=kind,
                func=func,
                line=line,
                col=col,
            )
        )
