"""Crash-safety rules: mutations must be recoverable, state must be owned.

The intent log can only undo what it saw.  PR 2 shipped a real hole of
this shape: buffer hits handed out mutable page objects and an engine
mutated one without a recorded pre-image, so a writer crash at the
wrong tick left the tree unrecoverable.  The static rule here catches
the *pattern* (mutating something fetched from a buffer pool in a scope
with no WAL evidence); the runtime
:class:`~repro.analysis.sanitizers.PageWriteSanitizer` catches the
*fact*.  The two mutable-default rules guard the other classic shape of
silent shared state: session/broker objects accidentally sharing one
list across instances.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.rules import Rule, Violation, terminal_name

__all__ = [
    "UnloggedPageMutationRule",
    "MutableDefaultArgRule",
    "SharedMutableClassAttrRule",
]

_MUTATORS = frozenset(
    {
        "add",
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "clear",
        "sort",
        "reverse",
        "update",
        "discard",
        "setdefault",
        "replace_entries",
        "update_child_box",
        "remove_child",
        "remove_record",
        "set_box",
    }
)

_WAL_TOKENS = ("wal", "intent")


def _mentions_wal(func: ast.AST) -> bool:
    for node in ast.walk(func):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name and any(token in name.lower() for token in _WAL_TOKENS):
            return True
    return False


class UnloggedPageMutationRule(Rule):
    """DQC01 — mutating a buffer-pool page in a scope with no WAL evidence.

    **Invariant:** any scope that mutates a page object obtained from a
    :class:`~repro.storage.buffer.BufferPool` (a cached page is handed
    out *by reference*) must also log a WAL pre-image — mention the
    intent log, or delegate to a helper that does.  Without the
    pre-image, a crash between the mutation and the next full write is
    unrecoverable: rollback restores every page *except* the one that
    changed in place.  This is the PR-2 writer-crash bug class,
    enforced at review time instead of re-discovered by chaos luck.
    Every node mutation is a row write, and each form is flagged on a
    pool-fetched name: assignment or ``del`` through it at any depth
    (``node.entries[k] = e``, ``del node.entries[k]``) and a node or row
    mutator call (``update_child_box``, ``set_box``, ``append``, …).
    """

    id = "DQC01"
    title = "buffer-pool page mutated in a scope without WAL evidence"
    scope = (("repro", "core"), ("repro", "index"), ("repro", "server"))

    def check(self, module, source, path) -> Iterator[Violation]:
        for func in ast.walk(module):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tracked = self._pool_fetches(func)
            if not tracked:
                continue
            if _mentions_wal(func):
                continue
            yield from self._mutations(func, tracked, path)

    @staticmethod
    def _pool_fetches(func: ast.AST) -> Set[str]:
        """Names assigned from ``<buffer-ish>.get(...)`` in this function."""
        tracked: Set[str] = set()
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            value = node.value
            if not (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "get"
            ):
                continue
            receiver = terminal_name(value.func.value)
            if receiver and (
                "buffer" in receiver.lower() or "pool" in receiver.lower()
            ):
                tracked.add(target.id)
        return tracked

    def _mutations(
        self, func: ast.AST, tracked: Set[str], path: str
    ) -> Iterator[Violation]:
        def roots(node: ast.AST) -> List[str]:
            """Base names of an attribute/subscript chain
            (``page.entries[0]`` -> page)."""
            while isinstance(node, (ast.Attribute, ast.Subscript)):
                node = node.value
            return [node.id] if isinstance(node, ast.Name) else []

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    [node.target] if isinstance(node, ast.AugAssign) else node.targets
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and any(r in tracked for r in roots(target)):
                        yield self.violation(
                            node,
                            path,
                            "in-place write to a buffer-pool page in a scope "
                            "with no WAL pre-image; a crash here is "
                            "unrecoverable",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and any(r in tracked for r in roots(node.func.value))
            ):
                yield self.violation(
                    node,
                    path,
                    f"'.{node.func.attr}()' mutates a buffer-pool page in a "
                    "scope with no WAL pre-image; a crash here is "
                    "unrecoverable",
                )


class MutableDefaultArgRule(Rule):
    """DQC02 — mutable default argument in library code.

    **Invariant:** no ``def f(x=[])``.  Defaults are evaluated once;
    every call then shares the same list/dict/set, which is exactly how
    per-session state (queues, frontier lists, metric dicts) bleeds
    across sessions.  Use ``None`` plus an in-body default, or a
    dataclass ``field(default_factory=...)``.
    """

    id = "DQC02"
    title = "mutable default argument"
    scope = (("repro",),)

    _FACTORIES = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._FACTORIES
            and not node.args
            and not node.keywords
        )

    def check(self, module, source, path) -> Iterator[Violation]:
        for func in ast.walk(module):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        default,
                        path,
                        f"mutable default argument in {func.name}(); all "
                        "calls share one object — use None or a "
                        "default_factory",
                    )


class SharedMutableClassAttrRule(Rule):
    """DQC03 — shared mutable class attribute in session/broker state.

    **Invariant:** server-side per-client state lives on instances, not
    classes.  A class-level ``queue = []`` is one list shared by every
    session the broker hosts — a cross-client data leak that looks fine
    in any single-client test.  Declare the attribute in ``__init__``
    or as a dataclass ``field(default_factory=...)``.
    """

    id = "DQC03"
    title = "shared mutable class attribute"
    scope = (("repro", "server"), ("repro", "core"))

    def check(self, module, source, path) -> Iterator[Violation]:
        helper = MutableDefaultArgRule()
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                value = None
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value = stmt.value
                if value is not None and helper._is_mutable(value):
                    yield self.violation(
                        stmt,
                        path,
                        f"mutable class attribute on {cls.name}; every "
                        "instance shares this object — initialise it in "
                        "__init__ or use field(default_factory=...)",
                    )
