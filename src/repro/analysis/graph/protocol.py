"""DQP01: wire-protocol registry vs. handler-table vs. send-site drift.

The remote shard stack agrees on its wire format in three places that
nothing ties together at runtime: ``protocol.py`` declares the
``MSG_*`` message-type registry and ``PROTOCOL_VERSION``, the worker
maps message types to handlers in its module-level ``_HANDLERS`` dict,
and the broker/worker call ``write_frame`` with the types they emit.
A request type added to the protocol but not the handler table only
fails when that message is first sent — in production, as a cryptic
``RemoteProtocolError`` from a live worker.  This rule fails the build
instead.

The checker is *registry-driven* and works on any protocol group in
the program (so fixtures can define their own): a protocol module is
any ``*.protocol`` module declaring integer ``MSG_*`` constants; its
group is every module in the same package; the worker is the group's
``*.worker`` module holding a ``_HANDLERS`` dict literal keyed by
``MSG_*`` references.  Reply types — the second argument of any
``write_frame`` call in the group, plus the ``MSG_RESULT`` /
``MSG_ERROR`` conventions — are emitted, not dispatched, so they need
no handler.

The protocol module's typed-object registry is the fourth view: every
wire-object tag its encoder table ``_BY_TYPE`` emits (the first item of
each ``(tag, encoder)`` value — ``cb``, the packed answer block, among
them) must have a decoder in ``_BY_TAG``, and every decoder must decode
a tag something emits.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.graph.model import GraphRule, ModuleInfo, Program
from repro.analysis.rules import Violation

__all__ = ["ProtocolDriftRule"]

_REPLY_NAMES = frozenset({"MSG_RESULT", "MSG_ERROR"})


def _registry_tags(info: ModuleInfo, name: str) -> Dict[str, int]:
    """Tag -> line of the ``_BY_TYPE`` values' ``(tag, encoder)`` tags
    or of the ``_BY_TAG`` keys (``name``), string literals only."""
    tags: Dict[str, int] = {}
    for stmt in info.node.body:
        target = stmt.target if isinstance(stmt, ast.AnnAssign) else (
            stmt.targets[0] if isinstance(stmt, ast.Assign) else None
        )
        if getattr(target, "id", None) != name or not isinstance(stmt.value, ast.Dict):
            continue
        d = stmt.value
        for node in d.keys if name == "_BY_TAG" else [
            v.elts[0] for v in d.values if isinstance(v, ast.Tuple) and v.elts
        ]:
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                tags.setdefault(node.value, node.lineno)
    return tags


def _toplevel_assign_line(info: ModuleInfo, name: str) -> int:
    for stmt in info.node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            return stmt.lineno
    return 1


def _msg_constants(info: ModuleInfo) -> Dict[str, int]:
    return {
        name: value
        for name, value in info.constants.items()
        if name.startswith("MSG_") and isinstance(value, int)
    }


def _protocol_aliases(info: ModuleInfo, protocol: str) -> Set[str]:
    """Local names in ``info`` bound to the protocol module itself."""
    aliases = {
        local
        for local, dotted in info.module_aliases.items()
        if dotted == protocol
    }
    for local, (mod, attr) in info.export_origin.items():
        if f"{mod}.{attr}" == protocol:
            aliases.add(local)
    return aliases


def _reply_types(group: List[ModuleInfo]) -> Set[str]:
    """MSG_* names passed as the type argument of any ``write_frame``."""
    replies: Set[str] = set()
    for info in group:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name != "write_frame" or len(node.args) < 2:
                continue
            arg = node.args[1]
            ref = (
                arg.attr
                if isinstance(arg, ast.Attribute)
                else arg.id if isinstance(arg, ast.Name) else None
            )
            if ref is not None and ref.startswith("MSG_"):
                replies.add(ref)
    return replies


class ProtocolDriftRule(GraphRule):
    """The protocol registry, handler table, and send sites must agree.

    Invariant: every request type the protocol declares is dispatchable
    by the worker (``_HANDLERS`` covers the registry), every handler
    dispatches a declared type, message-type values are unambiguous,
    diagnostic names (``_MESSAGE_NAMES``) cover the registry, the whole
    group pins one ``PROTOCOL_VERSION``, and no module references a
    ``MSG_*`` name the protocol does not define.  Drift between these
    three views is a wire-compatibility bug that only integration tests
    would otherwise catch, one message type at a time.
    """

    id = "DQP01"
    title = "remote protocol registry / handler table / send sites disagree"

    def check_program(self, program: Program) -> Iterator[Violation]:
        for name in sorted(program.modules):
            if not name.endswith(".protocol"):
                continue
            proto = program.modules[name]
            consts = _msg_constants(proto)
            if not consts or "PROTOCOL_VERSION" not in proto.constants:
                continue
            package = name.rsplit(".", 1)[0]
            group = [
                program.modules[m]
                for m in sorted(program.modules)
                if m == package or m.startswith(package + ".")
            ]
            for violation in self._check_group(proto, consts, group):
                yield violation

    # -- the individual drift checks ----------------------------------------

    def _check_group(
        self,
        proto: ModuleInfo,
        consts: Dict[str, int],
        group: List[ModuleInfo],
    ) -> Iterator[Violation]:
        yield from self._duplicate_values(proto, consts)
        yield from self._message_names(proto, consts)
        yield from self._wire_tags(proto)
        yield from self._version_pins(proto, group)
        worker = self._find_worker(group)
        if worker is not None:
            yield from self._handler_table(proto, consts, group, worker)
        for info in group:
            yield from self._undefined_refs(proto, consts, info)

    def _duplicate_values(
        self, proto: ModuleInfo, consts: Dict[str, int]
    ) -> Iterator[Violation]:
        by_value: Dict[int, List[str]] = {}
        for const, value in consts.items():
            by_value.setdefault(value, []).append(const)
        for value, names in sorted(by_value.items()):
            if len(names) < 2:
                continue
            names.sort(key=lambda n: _toplevel_assign_line(proto, n))
            yield self.violation(
                proto.display,
                _toplevel_assign_line(proto, names[1]),
                0,
                f"message types {', '.join(names)} share wire value "
                f"{value}; dispatch on them is ambiguous",
            )

    def _wire_tags(self, proto: ModuleInfo) -> Iterator[Violation]:
        emitted = _registry_tags(proto, "_BY_TYPE")
        decoded = _registry_tags(proto, "_BY_TAG")
        for tag, line in sorted(emitted.items()):
            if tag not in decoded:
                yield self.violation(
                    proto.display, line, 0,
                    f"wire-object tag {tag!r} is encoded but _BY_TAG has no "
                    "decoder; the peer would refuse it as an unknown tag",
                )
        for tag, line in sorted(decoded.items()):
            if tag not in emitted:
                yield self.violation(
                    proto.display, line, 0,
                    f"_BY_TAG decodes wire-object tag {tag!r}, which no "
                    "_BY_TYPE entry encodes",
                )

    def _message_names(
        self, proto: ModuleInfo, consts: Dict[str, int]
    ) -> Iterator[Violation]:
        entries = proto.name_key_dicts.get("_MESSAGE_NAMES")
        if entries is None:
            return
        covered = {key for key, _line, _val in entries}
        table_line = _toplevel_assign_line(proto, "_MESSAGE_NAMES")
        for const in sorted(consts):
            if const not in covered:
                yield self.violation(
                    proto.display,
                    table_line,
                    0,
                    f"_MESSAGE_NAMES is missing an entry for {const}; "
                    f"its frames would log as raw integers",
                )
        for key, line, _val in entries:
            if key.startswith("MSG_") and key not in consts:
                yield self.violation(
                    proto.display,
                    line,
                    0,
                    f"_MESSAGE_NAMES names {key}, which the protocol "
                    f"does not define",
                )

    def _version_pins(
        self, proto: ModuleInfo, group: List[ModuleInfo]
    ) -> Iterator[Violation]:
        pinned = proto.constants["PROTOCOL_VERSION"]
        for info in group:
            if info is proto:
                continue
            local = info.constants.get("PROTOCOL_VERSION")
            if local is not None and local != pinned:
                yield self.violation(
                    info.display,
                    _toplevel_assign_line(info, "PROTOCOL_VERSION"),
                    0,
                    f"{info.name} pins PROTOCOL_VERSION={local!r} but "
                    f"{proto.name} declares {pinned!r}",
                )

    @staticmethod
    def _find_worker(group: List[ModuleInfo]) -> Optional[ModuleInfo]:
        for info in group:
            if info.name.endswith(".worker") and (
                "_HANDLERS" in info.name_key_dicts
            ):
                return info
        return None

    def _handler_table(
        self,
        proto: ModuleInfo,
        consts: Dict[str, int],
        group: List[ModuleInfo],
        worker: ModuleInfo,
    ) -> Iterator[Violation]:
        entries = worker.name_key_dicts["_HANDLERS"]
        handled = {key for key, _line, _val in entries}
        replies = _reply_types(group) | (set(consts) & _REPLY_NAMES)
        requests = set(consts) - replies
        table_line = _toplevel_assign_line(worker, "_HANDLERS")
        for const in sorted(requests):
            if const not in handled:
                yield self.violation(
                    worker.display,
                    table_line,
                    0,
                    f"request type {const} has no _HANDLERS entry; the "
                    f"worker would reject it as unhandled at runtime",
                    witness=(proto.name, worker.name),
                )
        for key, line, _val in entries:
            if key.startswith("MSG_") and key not in consts:
                yield self.violation(
                    worker.display,
                    line,
                    0,
                    f"_HANDLERS dispatches {key}, which {proto.name} "
                    f"does not define",
                    witness=(proto.name, worker.name),
                )

    def _undefined_refs(
        self, proto: ModuleInfo, consts: Dict[str, int], info: ModuleInfo
    ) -> Iterator[Violation]:
        if info is proto:
            return
        aliases = _protocol_aliases(info, proto.name)
        if not aliases:
            return
        defined = set(consts) | set(proto.constants)
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and (
                    node.attr.startswith("MSG_")
                    or node.attr == "PROTOCOL_VERSION"
                )
                and node.attr not in defined
            ):
                yield self.violation(
                    info.display,
                    node.lineno,
                    node.col_offset,
                    f"reference to {node.value.id}.{node.attr}, which "
                    f"{proto.name} does not define",
                    witness=(info.name, proto.name),
                )
