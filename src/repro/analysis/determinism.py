"""DQD03: seeds are arithmetic on integers, never ``hash()``.

Everything this reproduction claims — bit-identical chaos replays,
answer-invariance of the shared-scan broker, crash recovery drills —
rests on runs being pure functions of their seeds.  Wall-clock reads
and unseeded RNGs (DQD01/DQD02, and DQG02 for whoever can reach one)
are effect contracts (:mod:`repro.analysis.graph.effects`); what is
left here is the one determinism rule that is about the *shape* of an
expression rather than the call it makes — the PR-2 fleet generator
seeded from a randomized ``hash()`` was exactly such a bug.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.graph.effects import ENGINE_LAYERS
from repro.analysis.rules import (
    Rule,
    Violation,
    ancestors,
    parent_map,
    terminal_name,
)

__all__ = ["HashSeedRule"]


class HashSeedRule(Rule):
    """DQD03 — RNG seed derived from ``hash()``.

    **Invariant:** seeds are arithmetic on integers the caller passed
    in.  ``hash()`` of a str/bytes is salted per *process* (PEP 456),
    so a seed like ``hash(mode)`` replays within one run and diverges
    on the next — the exact bug the fleet generator shipped with.
    Derive salts from stable data (an index into a constant tuple, an
    explicit integer table) instead.
    """

    id = "DQD03"
    title = "RNG seed derived from hash()"
    scope = tuple(tuple(layer.split(".")) for layer in ENGINE_LAYERS)

    def check(self, module, source, path) -> Iterator[Violation]:
        parents = parent_map(module)
        for node in ast.walk(module):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                continue
            if self._feeds_a_seed(node, parents):
                yield self.violation(
                    node,
                    path,
                    "hash() is salted per process (PEP 456); derive seeds "
                    "from stable integers instead",
                )

    @staticmethod
    def _feeds_a_seed(node: ast.Call, parents) -> bool:
        for ancestor in ancestors(node, parents):
            if isinstance(ancestor, ast.Call):
                func = ancestor.func
                name = terminal_name(func)
                if name in ("Random", "seed"):
                    return True
            elif isinstance(ancestor, ast.keyword):
                if ancestor.arg and "seed" in ancestor.arg.lower():
                    return True
            elif isinstance(ancestor, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                for target in targets:
                    name = terminal_name(target)
                    if name and "seed" in name.lower():
                        return True
            elif isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Scope boundary: a hash() in an unrelated statement of the
                # same function must not be blamed on a seed elsewhere.
                return False
        return False
