"""Async-safety rules for the event-loop front-end (DQA01–DQA03).

The remote multiplex front-end (:mod:`repro.server.remote.broker`)
drives K worker processes from one asyncio event loop; its correctness
rests on conventions no type checker enforces: never block the loop,
never drop a coroutine on the floor, and never mutate shared shard
tables across an ``await`` where another task can interleave.  Each
rule reads one module's AST and is scoped to ``repro/server/``.  Their
blocking-call list is its own contract — what stalls an event loop,
not what the effect contracts fence — so it is not the scanner's.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.rules import ImportMap, Rule, Violation

__all__ = [
    "BlockingAsyncCallRule",
    "UnawaitedCoroutineRule",
    "SharedTableAsyncMutationRule",
]

_SERVER_SCOPE = (("repro", "server"),)


def _async_defs(module: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(module):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _own_nodes(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes belonging to ``func`` itself — nested ``def``/``async def``
    bodies are excluded (a nested sync helper runs off-loop via an
    executor or not at all, and a nested async def is visited as its
    own function)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class BlockingAsyncCallRule(Rule):
    """No synchronous blocking calls inside ``async def``.

    Invariant: the front-end's event loop multiplexes every worker
    pipe; one ``time.sleep``/``subprocess.run``/sync pipe read inside a
    coroutine stalls *all* shards for its duration, turning the
    lockstep tick barrier into a serial convoy.  Blocking work belongs
    in ``asyncio`` equivalents (``asyncio.sleep``,
    ``create_subprocess_exec``, transport reads) or an executor.
    """

    id = "DQA01"
    title = "blocking call inside async def"
    scope = _SERVER_SCOPE

    _SUBPROCESS = frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    )
    _OS = frozenset({"read", "waitpid", "wait", "popen"})

    def check(
        self, module: ast.Module, source: str, path: str
    ) -> Iterator[Violation]:
        imap = ImportMap(module)
        for func in _async_defs(module):
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                what = self._blocking(node, imap)
                if what is not None:
                    yield self.violation(
                        node,
                        path,
                        f"{what} blocks the event loop inside "
                        f"async def {func.name}",
                    )

    def _blocking(
        self, node: ast.Call, imap: ImportMap
    ) -> Optional[str]:
        target = node.func
        if isinstance(target, ast.Name):
            name = target.id
            if name == "open":
                return "open()"
            origin = imap.members.get(name)
            if origin is not None:
                dotted, orig = origin
                if dotted == "time" and orig == "sleep":
                    return "time.sleep()"
                if dotted == "subprocess" and orig in self._SUBPROCESS:
                    return f"subprocess.{orig}()"
                if dotted == "os" and orig in self._OS:
                    return f"os.{orig}()"
                if dotted == "io" and orig == "open":
                    return "io.open()"
            return None
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            dotted = imap.modules.get(target.value.id)
            attr = target.attr
            if dotted == "time" and attr == "sleep":
                return "time.sleep()"
            if dotted == "subprocess" and attr in self._SUBPROCESS:
                return f"subprocess.{attr}()"
            if dotted == "os" and attr in self._OS:
                return f"os.{attr}()"
            if dotted == "io" and attr == "open":
                return "io.open()"
        return None


class UnawaitedCoroutineRule(Rule):
    """Calling a coroutine as a statement without ``await`` is a no-op.

    Invariant: a coroutine call that is neither awaited nor scheduled
    silently does nothing (Python only warns at garbage-collection
    time, and only sometimes) — in the front-end that means a tick
    never broadcast or a worker never torn down.  Flags
    statement-expression calls of same-module ``async def`` names and
    of the awaitable ``asyncio`` primitives.
    """

    id = "DQA02"
    title = "coroutine called without await"
    scope = _SERVER_SCOPE

    _ASYNCIO = frozenset({"sleep", "gather", "wait", "wait_for"})

    def check(
        self, module: ast.Module, source: str, path: str
    ) -> Iterator[Violation]:
        imap = ImportMap(module)
        local_async: Set[str] = {
            node.name for node in _async_defs(module)
        }
        for node in ast.walk(module):
            if not (isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            )):
                continue
            call = node.value
            target = call.func
            name = None
            if isinstance(target, ast.Name):
                if target.id in local_async:
                    name = target.id
            elif isinstance(target, ast.Attribute):
                receiver = target.value
                if (
                    isinstance(receiver, ast.Name)
                    and imap.modules.get(receiver.id) == "asyncio"
                    and target.attr in self._ASYNCIO
                ):
                    name = f"asyncio.{target.attr}"
                elif target.attr in local_async:
                    name = target.attr
            if name is not None:
                yield self.violation(
                    call,
                    path,
                    f"coroutine {name}() is never awaited — the call "
                    f"builds a coroutine object and discards it",
                )


class SharedTableAsyncMutationRule(Rule):
    """No shard-table mutation after an ``await`` in the same coroutine.

    Invariant: between two ``await`` points any other task can run, so
    a coroutine that suspends and *then* mutates a shared shard table
    (worker registry, session/subscription maps, pending journals,
    metric accumulators, the chaos kill plan) races with the tick
    barrier that snapshots those tables.  Reads before the first
    suspension are safe; mutations belong either before the first
    ``await`` or behind the tick barrier that owns the table.
    """

    id = "DQA03"
    title = "shared table mutated after await point"
    scope = _SERVER_SCOPE

    _TABLES = frozenset(
        {
            "workers",
            "sessions",
            "_sessions",
            "subs",
            "pending",
            "metrics",
            "kill_plan",
        }
    )
    _MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "update",
            "setdefault",
            "add",
            "discard",
        }
    )

    def check(
        self, module: ast.Module, source: str, path: str
    ) -> Iterator[Violation]:
        for func in _async_defs(module):
            nodes = list(_own_nodes(func))
            awaits = [n.lineno for n in nodes if isinstance(n, ast.Await)]
            if not awaits:
                continue
            first_await = min(awaits)
            for node in nodes:
                table = self._mutation(node)
                if table is not None and node.lineno > first_await:
                    yield self.violation(
                        node,
                        path,
                        f"shared table .{table} mutated after the await "
                        f"at line {first_await} in async def "
                        f"{func.name}; another task may interleave",
                    )

    def _mutation(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                table = self._assign_target(target)
                if table is not None:
                    return table
        elif isinstance(node, ast.AugAssign):
            return self._assign_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                table = self._assign_target(target)
                if table is not None:
                    return table
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in self._TABLES
            ):
                return func.value.attr
        return None

    def _assign_target(self, target: ast.AST) -> Optional[str]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                table = self._assign_target(element)
                if table is not None:
                    return table
            return None
        if isinstance(target, ast.Starred):
            return self._assign_target(target.value)
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self._TABLES:
            return target.attr
        return None
