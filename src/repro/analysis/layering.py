"""DQL03: one ``except ReproError`` catches everything the library raises.

The import arrows of the layer stack (DQL01/02/04, DQG01) are the
contract table in :mod:`repro.analysis.graph.layers`, and the
filesystem / process / numpy fences (DQL05–07) are effect contracts in
:mod:`repro.analysis.graph.effects`.  What is left here is the rule
that keeps the error contract honest, which is about what one ``raise``
statement names rather than about who imports or calls whom.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules import Rule, Violation

__all__ = ["GenericRaiseRule"]


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
