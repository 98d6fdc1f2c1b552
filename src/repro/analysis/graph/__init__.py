"""Whole-program analysis: the repo-wide import+call graph.

A rule that reads one module at a time cannot see a transitive import
(``server → workload → storage.disk``) or a wall-clock call two hops
below an engine module.  This package is the part of ``repro-dq lint``
that sees the whole program, and the only part that knows what an
effect or a forbidden layer is:

* :mod:`repro.analysis.graph.model` parses every ``repro.*`` module
  into a :class:`~repro.analysis.graph.model.Program` — import edges
  (top-level, lazy/function-local, and ``__getattr__`` deferred
  re-exports), a name-based call graph at function granularity, and
  primitive *effect sites* (wall-clock, unseeded RNG, filesystem I/O,
  process/socket APIs, numpy imports).  Its scanner is the one
  detector every effect rule reads;
* :mod:`repro.analysis.graph.layers` holds the import contracts
  (``CONTRACTS``): a direct breach is DQL01/02/04, a transitive one
  DQG01 with the witness path in the diagnostic;
* :mod:`repro.analysis.graph.effects` holds the effect contracts
  (``EFFECT_CONTRACTS``): a site inside a bound module is
  DQD01/02 or DQL05–07, a bound module that can *reach* one elsewhere
  is DQG02–DQG04;
* :mod:`repro.analysis.graph.protocol` cross-references the remote
  protocol registry, the worker's ``_HANDLERS`` table, and every
  front-end send site (DQP01).

:class:`~repro.analysis.engine.LintEngine` runs these over the same
parsed files as the syntactic per-file rules and settles every finding
through the same suppression comments and baseline.
"""

from repro.analysis.graph.effects import EFFECT_CONTRACTS, EffectRule
from repro.analysis.graph.layers import CONTRACTS, LayerReachRule
from repro.analysis.graph.model import (
    EffectSite,
    GraphRule,
    ImportEdge,
    ModuleInfo,
    Program,
    build_program,
    module_name_for,
)
from repro.analysis.graph.protocol import ProtocolDriftRule

__all__ = [
    "GRAPH_RULES",
    "GraphRule",
    "Program",
    "ModuleInfo",
    "ImportEdge",
    "EffectSite",
    "CONTRACTS",
    "EFFECT_CONTRACTS",
    "LayerReachRule",
    "EffectRule",
    "ProtocolDriftRule",
    "build_program",
    "module_name_for",
]

#: Every whole-program rule.
GRAPH_RULES = (LayerReachRule(), EffectRule(), ProtocolDriftRule())
