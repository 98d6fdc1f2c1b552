"""Layering rules: the dependency arrows only point downward.

The package is a strict stack — ``geometry`` at the bottom, then
``motion``/``storage``, then ``index``, then ``core``, then ``server``
on top.  Two arrows matter enough to enforce mechanically: nothing
above the index layer touches the physical page store (all reads must
be deduplicatable by the shared :class:`~repro.storage.BufferPool`, or
the serving layer's at-most-once-per-tick read guarantee silently
erodes), and ``geometry`` stays importable in total isolation (every
hypothesis property suite and the codec round-trip tests depend on
that).  A third rule keeps the error contract honest: callers are
promised that one ``except ReproError`` catches everything the library
raises.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules import ImportMap, Rule, Violation, terminal_name

__all__ = [
    "PhysicalStorageImportRule",
    "GeometryIsolationRule",
    "GenericRaiseRule",
    "FrontEndIsolationRule",
    "FilesystemIsolationRule",
    "ProcessBoundaryRule",
    "NumpyIsolationRule",
    "DeprecatedAliasRule",
]


class PhysicalStorageImportRule(Rule):
    """DQL01 — ``server``/``core`` importing the physical page store.

    **Invariant:** query engines and the serving layer never talk to
    :class:`~repro.storage.disk.DiskManager` directly; every physical
    read flows through an index object and its attached
    :class:`~repro.storage.buffer.BufferPool`.  A direct disk import up
    here is how pages get read outside the shared scan's pin window —
    uncounted, unbatched, and invisible to the crash-safety pre-image
    capture.
    """

    id = "DQL01"
    title = "server/core importing repro.storage.disk"
    scope = (("repro", "server"), ("repro", "core"))

    def check(self, module, source, path) -> Iterator[Violation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.storage.disk"):
                        yield self.violation(
                            node,
                            path,
                            "direct import of repro.storage.disk; physical "
                            "reads must go through the index layer and its "
                            "BufferPool",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.storage.disk"):
                    yield self.violation(
                        node,
                        path,
                        "direct import from repro.storage.disk; physical "
                        "reads must go through the index layer and its "
                        "BufferPool",
                    )
                elif node.module == "repro.storage" and any(
                    alias.name == "DiskManager" for alias in node.names
                ):
                    yield self.violation(
                        node,
                        path,
                        "importing DiskManager via repro.storage is still a "
                        "physical-storage dependency; go through the index "
                        "layer and its BufferPool",
                    )


class GeometryIsolationRule(Rule):
    """DQL02 — ``geometry`` importing a layer above itself.

    **Invariant:** ``repro.geometry`` depends on the standard library
    and ``repro.errors`` only.  It is the foundation every other layer
    builds on; an upward import here is an import cycle waiting to
    happen and would make the geometry property suites drag index and
    storage machinery into every run.
    """

    id = "DQL02"
    title = "geometry importing a layer above itself"
    scope = (("repro", "geometry"),)

    _ALLOWED = ("repro.geometry", "repro.errors")

    def _allowed(self, dotted: str) -> bool:
        return any(
            dotted == base or dotted.startswith(base + ".")
            for base in self._ALLOWED
        )

    def check(self, module, source, path) -> Iterator[Violation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro") and not self._allowed(
                        alias.name
                    ):
                        yield self.violation(
                            node,
                            path,
                            f"geometry must not import {alias.name}; only "
                            "repro.geometry and repro.errors are below it",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if not node.module.startswith("repro"):
                    continue
                if node.module == "repro":
                    for alias in node.names:
                        dotted = f"repro.{alias.name}"
                        if not self._allowed(dotted):
                            yield self.violation(
                                node,
                                path,
                                f"geometry must not import {dotted}; only "
                                "repro.geometry and repro.errors are below it",
                            )
                elif not self._allowed(node.module):
                    yield self.violation(
                        node,
                        path,
                        f"geometry must not import {node.module}; only "
                        "repro.geometry and repro.errors are below it",
                    )


class GenericRaiseRule(Rule):
    """DQL03 — raising a generic builtin instead of a ``repro.errors`` type.

    **Invariant:** every exception the library raises derives from
    :class:`~repro.errors.ReproError`, so callers (and the broker's
    degradation machinery) can draw the line between "this library
    failed in a classified way" and "a genuine bug escaped".  A bare
    ``raise Exception``/``ValueError`` punches a hole in that contract.
    ``NotImplementedError`` and ``assert`` remain fine — they flag
    caller bugs, not library failure domains.
    """

    id = "DQL03"
    title = "generic builtin raise bypassing repro.errors"
    scope = (("repro",),)

    _GENERIC = frozenset(
        {"Exception", "BaseException", "RuntimeError", "ValueError",
         "AssertionError"}
    )

    def check(self, module, source, path) -> Iterator[Violation]:
        for node in ast.walk(module):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._GENERIC:
                yield self.violation(
                    node,
                    path,
                    f"raise {name} bypasses the repro.errors hierarchy; "
                    "raise the matching ReproError subclass",
                )


class FrontEndIsolationRule(Rule):
    """DQL04 — a server internal importing the sharded front-end.

    **Invariant:** :mod:`repro.server.shard` sits at the *top* of the
    serving stack: it may import the schedulers, dispatchers, sessions
    and brokers it multiplexes, but no other ``repro.server`` module
    may import it back.  An inward arrow from broker/scheduler/session
    code into the front-end is an import cycle in waiting, and would
    let per-shard machinery grow behavioural dependencies on how (or
    whether) it is being multiplexed — exactly what the answer-
    invariance property forbids.  The package ``__init__`` is exempt:
    re-exporting the public surface is not a dependency of the inner
    layers.  So is :mod:`repro.server.remote`: the out-of-process
    front-end sits *beside* ``shard`` at the top of the stack and
    shares its :class:`~repro.server.shard.ShardPlan` routing — an
    import between two top-of-stack peers points sideways, not inward.
    """

    id = "DQL04"
    title = "server internals importing repro.server.shard"
    scope = (("repro", "server"),)

    _EXEMPT = frozenset({"shard.py", "__init__.py"})

    def check(self, module, source, path) -> Iterator[Violation]:
        parts = path.replace("\\", "/").split("/")
        if parts[-1] in self._EXEMPT:
            return
        if tuple(parts[-3:-1]) == ("server", "remote"):
            return
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.server.shard"):
                        yield self.violation(
                            node,
                            path,
                            "server internals must not import the sharded "
                            "front-end; repro.server.shard depends on them, "
                            "never the reverse",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.server.shard"):
                    yield self.violation(
                        node,
                        path,
                        "server internals must not import the sharded "
                        "front-end; repro.server.shard depends on them, "
                        "never the reverse",
                    )


class FilesystemIsolationRule(Rule):
    """DQL05 — filesystem I/O outside the durable-storage boundary.

    **Invariant:** the only modules allowed to touch the filesystem are
    :mod:`repro.storage.file` (the page files and snapshots),
    :mod:`repro.storage.wal` (the redo log) and the CLI (answer
    streams, store config, figure exports).  Everything else operates
    on in-memory state handed to it — that is what makes every engine
    and index testable against the simulated
    :class:`~repro.storage.disk.DiskManager`, and what guarantees crash
    recovery only ever has *two* on-disk artefact families to reason
    about.  The :mod:`repro.analysis` package itself is exempt: a
    linter must read the files it lints and persist its baseline.

    Flagged: calls to builtin ``open`` (and ``io.open``), the durable
    ``os`` mutations (``fsync``/``replace``/``rename``/``remove``/
    ``unlink``/``makedirs``/``mkdir``/``rmdir``/``truncate``), and the
    writing ``pathlib.Path`` methods (``write_text``/``write_bytes``/
    ``open``/``mkdir``/``touch``/``unlink``).
    """

    id = "DQL05"
    title = "filesystem I/O outside repro.storage.file / .wal / the CLI"
    scope = (("repro",),)

    _OS_CALLS = frozenset(
        {
            "fsync",
            "replace",
            "rename",
            "remove",
            "unlink",
            "makedirs",
            "mkdir",
            "rmdir",
            "truncate",
        }
    )
    _PATHLIB_CALLS = frozenset(
        {"write_text", "write_bytes", "open", "mkdir", "touch", "unlink"}
    )

    def _exempt(self, path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        tail = tuple(parts[-3:])
        if tail[-2:] == ("storage", "file.py") or tail[-2:] == ("storage", "wal.py"):
            return True
        if tail[-2:] == ("repro", "cli.py"):
            return True
        return "analysis" in parts[-2:-1] and "repro" in parts

    def check(self, module, source, path) -> Iterator[Violation]:
        if self._exempt(path):
            return
        imports = ImportMap(module)
        os_aliases = imports.aliases_of("os")
        io_aliases = imports.aliases_of("io")
        os_members = {
            local
            for local, orig in imports.members_from("os").items()
            if orig in self._OS_CALLS
        }
        pathlib_names = imports.aliases_of("pathlib") | {
            local
            for local, orig in imports.members_from("pathlib").items()
            if orig in ("Path", "PurePath", "PosixPath", "WindowsPath")
        }
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    yield self.violation(
                        node,
                        path,
                        "filesystem open() outside the storage boundary; "
                        "only repro.storage.file, repro.storage.wal and "
                        "the CLI may touch disk",
                    )
                elif func.id in os_members:
                    yield self.violation(
                        node,
                        path,
                        f"os.{func.id}() outside the storage boundary; "
                        "only repro.storage.file, repro.storage.wal and "
                        "the CLI may touch disk",
                    )
            elif isinstance(func, ast.Attribute):
                recv = terminal_name(func.value)
                if recv in os_aliases and func.attr in self._OS_CALLS:
                    yield self.violation(
                        node,
                        path,
                        f"os.{func.attr}() outside the storage boundary; "
                        "only repro.storage.file, repro.storage.wal and "
                        "the CLI may touch disk",
                    )
                elif recv in io_aliases and func.attr == "open":
                    yield self.violation(
                        node,
                        path,
                        "io.open() outside the storage boundary; only "
                        "repro.storage.file, repro.storage.wal and the "
                        "CLI may touch disk",
                    )
                elif pathlib_names and func.attr in self._PATHLIB_CALLS:
                    root = func.value
                    # Path("x").write_text(...) or p.write_bytes(...)
                    # where the receiver chain starts from a pathlib
                    # binding; bare attribute matches on unrelated
                    # objects are ignored.
                    base = root
                    while isinstance(base, (ast.Attribute, ast.Call)):
                        base = (
                            base.func
                            if isinstance(base, ast.Call)
                            else base.value
                        )
                    if (
                        isinstance(base, ast.Name)
                        and base.id in pathlib_names
                    ):
                        yield self.violation(
                            node,
                            path,
                            f"pathlib write ({func.attr}) outside the "
                            "storage boundary; only repro.storage.file, "
                            "repro.storage.wal and the CLI may touch disk",
                        )


class ProcessBoundaryRule(Rule):
    """DQL06 — process/IPC machinery outside the remote serving boundary.

    **Invariant:** the only modules allowed to spawn processes or open
    sockets are the :mod:`repro.server.remote` package (the worker
    entrypoint and its multiplex front-end) and the CLI that launches
    them.  Everything else is single-process by construction — that is
    what makes the in-process and out-of-process brokers byte-identical
    (one lockstep clock, one writer per shard, no hidden concurrency),
    and what keeps the kill-chaos suites honest: a worker SIGKILL can
    only ever take down state the remote layer knows how to replay.

    Flagged: any import of ``socket``, ``subprocess`` or
    ``multiprocessing`` (including submodules and ``from`` imports)
    outside ``repro/server/remote/`` and ``repro/cli.py``.
    """

    id = "DQL06"
    title = "socket/subprocess/multiprocessing outside repro.server.remote"
    scope = (("repro",),)

    _FORBIDDEN = ("socket", "subprocess", "multiprocessing")

    def _exempt(self, path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        if tuple(parts[-3:-1]) == ("server", "remote"):
            return True
        return tuple(parts[-2:]) == ("repro", "cli.py")

    def _flag(self, dotted: str) -> bool:
        return any(
            dotted == base or dotted.startswith(base + ".")
            for base in self._FORBIDDEN
        )

    def check(self, module, source, path) -> Iterator[Violation]:
        if self._exempt(path):
            return
        for node in ast.walk(module):
            names = ()
            if isinstance(node, ast.Import):
                names = tuple(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import — never a stdlib module
                    continue
                names = (node.module,)
            for dotted in names:
                if self._flag(dotted):
                    yield self.violation(
                        node,
                        path,
                        f"import of {dotted} outside the remote serving "
                        "boundary; only repro.server.remote and the CLI "
                        "may spawn processes or open sockets",
                    )


class NumpyIsolationRule(Rule):
    """DQL07 — numpy escaping the batch-kernel boundary.

    **Invariant:** one module owns the array representation.
    :mod:`repro.geometry.kernels` decides dtype, column layout and the
    expression order that keeps every kernel bit-identical to the scalar
    geometry; the engines and :mod:`repro.index.pagearrays` hand its
    batches around as opaque objects.  If another ``repro`` module
    imported numpy it could build or reinterpret arrays on its own, and
    the differential suite — which pins the kernels, not their callers —
    would no longer cover every place floats are computed.

    Flagged: any import of ``numpy`` (including submodules and ``from``
    imports) inside ``repro`` outside ``repro/geometry/kernels.py``.
    Benchmarks and tests live outside the scoped package and may use
    numpy freely.
    """

    id = "DQL07"
    title = "numpy import outside repro.geometry.kernels"
    scope = (("repro",),)

    def _exempt(self, path: str) -> bool:
        parts = path.replace("\\", "/").split("/")
        return tuple(parts[-2:]) == ("geometry", "kernels.py")

    def _flag(self, dotted: str) -> bool:
        return dotted == "numpy" or dotted.startswith("numpy.")

    def check(self, module, source, path) -> Iterator[Violation]:
        if self._exempt(path):
            return
        for node in ast.walk(module):
            names = ()
            if isinstance(node, ast.Import):
                names = tuple(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import — never numpy
                    continue
                names = (node.module,)
            for dotted in names:
                if self._flag(dotted):
                    yield self.violation(
                        node,
                        path,
                        f"import of {dotted} outside repro.geometry."
                        "kernels, the one module that owns the array "
                        "representation",
                    )


class DeprecatedAliasRule(Rule):
    """DQX01 — resurrecting the removed ``IndexError_`` alias.

    **Invariant:** the pre-rename spelling of
    :class:`~repro.errors.IndexStructureError` went through its
    deprecation cycle and is gone.  Any new reference — an import, an
    assignment, a re-export — would resurrect a name chosen only to
    dodge the ``IndexError`` builtin, and restart the confusion the
    rename paid for.
    """

    id = "DQX01"
    title = "reference to the removed IndexError_ alias"
    scope = None  # everywhere, tests included

    def check(self, module, source, path) -> Iterator[Violation]:
        for node in ast.walk(module):
            name = None
            if isinstance(node, ast.Name) and node.id == "IndexError_":
                name = node.id
            elif isinstance(node, ast.Attribute) and node.attr == "IndexError_":
                name = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if any(
                    "IndexError_" in (alias.name, alias.asname or "")
                    for alias in node.names
                ):
                    name = "IndexError_"
            if name:
                yield self.violation(
                    node,
                    path,
                    "IndexError_ was removed after its deprecation cycle; "
                    "use IndexStructureError",
                )
