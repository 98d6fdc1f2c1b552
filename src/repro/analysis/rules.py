"""Lint-rule framework: violations, scoping, and shared AST helpers.

A rule is a small class with an ``id`` (stable, referenced by
``# repro: disable=ID`` comments and the committed baseline), a
``scope`` restricting it to the package layers whose invariant it
guards, and a ``check`` generator over a parsed module.  The rule's
docstring *is* its catalogue entry (:class:`RuleDoc`): it must state
the invariant and why the codebase needs it, because a rule nobody can
justify gets disabled instead of obeyed.  Rules that are rows of a
contract table (:mod:`repro.analysis.graph`) carry the same three
fields as table text.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Violation", "RuleDoc", "Rule", "ImportMap", "terminal_name"]


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location.

    ``witness`` is the module chain proving a whole-program finding
    (``("repro.server.broker", "repro.core.pdq", "repro.storage.disk")``);
    empty for per-file rules.  The chain is already rendered into
    ``message`` for humans — the structured copy exists for
    ``--format json`` consumers.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    witness: Tuple[str, ...] = ()

    def render(self) -> str:
        """The canonical one-line report form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    @property
    def baseline_key(self) -> str:
        """Line-number-free identity used by the ratchet baseline."""
        return f"{self.path}::{self.rule}"


class RuleDoc(NamedTuple):
    """One catalogue entry: what ``lint --rules`` lists and the hygiene
    tests read.  ``why`` states the invariant the id protects — a rule
    nobody can justify gets disabled instead of obeyed."""

    id: str
    title: str
    why: str


class Rule:
    """Base class: subclasses set ``id``/``scope`` and implement ``check``.

    ``scope`` is a sequence of path-segment tuples; the rule applies to
    a file iff any tuple occurs as *consecutive* directory segments of
    its path (so ``("repro", "core")`` matches ``src/repro/core/pdq.py``
    and a fixture under ``tmp/repro/core/`` alike).  ``None`` applies
    everywhere the engine walks.
    """

    id: str = ""
    title: str = ""
    scope: Optional[Sequence[Tuple[str, ...]]] = None

    def applies(self, parts: Tuple[str, ...]) -> bool:
        """Does this rule govern a file with these path segments?"""
        if self.scope is None:
            return True
        for want in self.scope:
            n = len(want)
            for i in range(len(parts) - n + 1):
                if parts[i : i + n] == tuple(want):
                    return True
        return False

    def docs(self) -> Tuple[RuleDoc, ...]:
        """The catalogue entries for the ids this rule can report."""
        return (RuleDoc(self.id, self.title, self.__doc__ or ""),)

    def check(
        self, module: ast.Module, source: str, path: str
    ) -> Iterator[Violation]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    def violation(self, node: ast.AST, path: str, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a ``Name``/``Attribute`` chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ImportMap:
    """What a module imported, resolved to local binding names.

    ``modules`` maps a local name to the dotted module it aliases
    (``import random as rnd`` -> ``{"rnd": "random"}``); ``members``
    maps a local name to ``(module, original_name)`` for from-imports
    (``from random import Random as R`` -> ``{"R": ("random",
    "Random")}``).
    """

    def __init__(self, module: ast.Module):
        self.modules: Dict[str, str] = {}
        self.members: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.modules[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.members[local] = (node.module, alias.name)


def parent_map(module: ast.Module) -> Dict[ast.AST, ast.AST]:
    """Child -> parent links for ancestor walks (ast has none built in)."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(module):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module root."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)
