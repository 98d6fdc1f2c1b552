"""DQL01/02/04 and DQG01: the import contracts, edge and closure alike.

The package is a strict stack — ``geometry`` at the bottom, then
``motion``/``storage``, then ``index``, then ``core``, then ``server``
on top — and :data:`CONTRACTS` is the one table that declares which
arrows are forbidden.  :class:`LayerReachRule` walks the whole import
graph from every module a row binds: a *direct* import of a forbidden
module (a two-module chain) is reported under the row's own id
(DQL01/02/04), anything longer under DQG01 with its witness path, so
``server.broker → workload.runner → storage.disk`` fails even though no
single file names the forbidden module — and one import is never
reported twice.

Two escape valves:

* **mediators** — layers that are *allowed* to cross the boundary on
  the source's behalf (``repro.index`` legitimately reaches
  ``repro.storage.disk``; a server module reaching disk *through the
  index* is the architecture working, not a leak).  Mediator modules
  are checked as targets but never expanded.
* **package inits are stop nodes** — ``repro/__init__.py`` eagerly
  re-exports half the library, so walking through it would connect
  everything to everything.  An init is still checked as a *target*
  (importing ``repro.server`` from geometry is a real edge) and still
  analysed as a *source*, but its own fan-out is not charged to whoever
  imported it.  Deferred ``__getattr__`` exports don't need this
  special case — they are non-traversable ``reexport`` edges — and a
  consumer that from-imports a re-exported name gets a direct resolved
  edge to the defining module, so real dependencies are still charged
  to whoever takes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.graph.model import (
    EDGE_EAGER,
    EDGE_LAZY,
    GraphRule,
    ImportEdge,
    Program,
    under_any,
)
from repro.analysis.rules import RuleDoc, Violation

__all__ = ["LayerContract", "LayerReachRule", "CONTRACTS"]

_TRAVERSABLE = (EDGE_EAGER, EDGE_LAZY)


@dataclass(frozen=True)
class LayerContract:
    """One reachability contract over the layer DAG.

    ``sources`` selects the modules the contract binds (prefixes; empty
    means every ``repro`` module).  A source matching ``exempt`` (by
    prefix) or ``exempt_exact`` (by full name) is skipped.  Exactly one
    of ``forbidden``/``allowed`` is set: ``forbidden`` fails when a
    source can reach a module under any listed prefix; ``allowed``
    fails when a source can reach a repro module *outside* every listed
    prefix (confinement).  ``mediators`` are stop prefixes: checked as
    targets, never expanded.  ``direct`` is the catalogue entry a
    source *itself importing* the offending module is reported under;
    without one every breach, direct or not, is a DQG01.
    """

    name: str
    sources: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()
    exempt_exact: Tuple[str, ...] = ()
    forbidden: Tuple[str, ...] = ()
    allowed: Tuple[str, ...] = ()
    mediators: Tuple[str, ...] = ()
    direct: Optional[RuleDoc] = None

    def binds(self, module: str) -> bool:
        if self.sources and not under_any(module, self.sources):
            return False
        if module in self.exempt_exact:
            return False
        return not under_any(module, self.exempt)

    def offends(self, module: str) -> bool:
        if self.forbidden:
            return under_any(module, self.forbidden)
        return not under_any(module, self.allowed)


#: The declared layer DAG, as reachability contracts.
CONTRACTS: Tuple[LayerContract, ...] = (
    LayerContract(
        name="engine-over-physical-storage",
        sources=("repro.server", "repro.core"),
        forbidden=("repro.storage.disk",),
        mediators=("repro.index",),
        direct=RuleDoc(
            "DQL01",
            "server/core importing repro.storage.disk",
            """**Invariant:** query engines and the serving layer never talk to
            :class:`~repro.storage.disk.DiskManager` directly; every physical
            read flows through an index object and its attached
            :class:`~repro.storage.buffer.BufferPool`.  A direct disk import up
            here is how pages get read outside the shared scan's held pools —
            uncounted, unbatched, and invisible to the crash-safety pre-image
            capture.""",
        ),
    ),
    LayerContract(
        name="geometry-leaf-confinement",
        sources=("repro.geometry",),
        allowed=("repro.geometry", "repro.errors"),
        direct=RuleDoc(
            "DQL02",
            "geometry importing a layer above itself",
            """**Invariant:** ``repro.geometry`` depends on the standard library
            and ``repro.errors`` only.  It is the foundation every other layer
            builds on; an upward import here is an import cycle waiting to
            happen and would make the geometry property suites drag index and
            storage machinery into every run.""",
        ),
    ),
    LayerContract(
        name="server-internals-below-front-end",
        sources=("repro.server",),
        exempt=("repro.server.shard", "repro.server.remote"),
        exempt_exact=("repro.server",),
        forbidden=("repro.server.shard",),
        direct=RuleDoc(
            "DQL04",
            "server internals importing repro.server.shard",
            """**Invariant:** :mod:`repro.server.shard` sits at the *top* of the
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
            import between two top-of-stack peers points sideways, not inward.""",
        ),
    ),
    LayerContract(
        name="durable-storage-behind-cli",
        exempt=("repro.cli", "repro.analysis", "repro.storage.file"),
        forbidden=("repro.storage.file",),
    ),
    LayerContract(
        name="remote-stack-behind-front-end",
        exempt=("repro.cli", "repro.server.remote"),
        exempt_exact=("repro.server",),
        forbidden=("repro.server.remote",),
    ),
)


@dataclass
class _Reach:
    """One offending target with its witness chain and anchor edge."""

    target: str
    chain: Tuple[str, ...]
    first_edge: ImportEdge


class LayerReachRule(GraphRule):
    """Layer contracts must hold in *transitive* closure of imports.

    Invariant: the layer DAG :data:`CONTRACTS` declares edge-by-edge
    (engines never touch physical storage except through the index,
    geometry stays a leaf, server internals sit below the front-end,
    the durable-file and remote stacks stay behind their entry points)
    also holds for every *path* of imports — a module may not launder a
    forbidden dependency through an intermediate layer.  Each
    diagnostic carries the witness path that proves the leak.
    """

    id = "DQG01"
    title = "transitive import reaches a forbidden layer"

    def docs(self) -> Tuple[RuleDoc, ...]:
        return super().docs() + tuple(
            c.direct for c in CONTRACTS if c.direct is not None
        )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for contract in CONTRACTS:
            for name in sorted(program.modules):
                if not contract.binds(name):
                    continue
                for reach in self._offending(program, contract, name):
                    yield self._render(program, contract, name, reach)

    # -- traversal ----------------------------------------------------------

    def _offending(
        self, program: Program, contract: LayerContract, source: str
    ) -> List[_Reach]:
        """BFS from ``source`` over eager+lazy edges; returns one
        :class:`_Reach` per distinct offending module, shortest path
        first.  An offending name need not be among the linted files:
        a single-file run still fails on the import that names it."""
        hits: Dict[str, _Reach] = {}
        seen = {source}
        # queue entries: (module, chain-so-far, first edge on the chain)
        queue: List[Tuple[str, Tuple[str, ...], Optional[ImportEdge]]] = [
            (source, (source,), None)
        ]
        while queue:
            current, chain, first = queue.pop(0)
            info = program.module(current)
            if info is None:
                continue
            # Stop nodes: expand the source itself even if it is an
            # init/mediator, but nothing reached *through* one.
            if current != source and self._stops(program, contract, current):
                continue
            for edge in info.edges:
                if edge.kind not in _TRAVERSABLE:
                    continue
                target = edge.dst
                if target in seen:
                    continue
                seen.add(target)
                head = first if first is not None else edge
                if contract.offends(target):
                    hits[target] = _Reach(target, chain + (target,), head)
                else:
                    queue.append((target, chain + (target,), head))
        return [hits[t] for t in sorted(hits)]

    def _stops(
        self, program: Program, contract: LayerContract, module: str
    ) -> bool:
        if under_any(module, contract.mediators):
            return True
        info = program.module(module)
        return info is not None and info.is_package

    def _render(
        self,
        program: Program,
        contract: LayerContract,
        source: str,
        reach: _Reach,
    ) -> Violation:
        edge = reach.first_edge
        if contract.forbidden:
            what = f"reaches forbidden layer {reach.target}"
        else:
            what = (
                f"escapes its layer to {reach.target} "
                f"(allowed: {', '.join(contract.allowed)})"
            )
        direct = len(reach.chain) == 2 and contract.direct is not None
        return Violation(
            rule=contract.direct.id if direct else self.id,
            path=program.modules[source].display,
            line=edge.line,
            col=edge.col,
            message=(
                f"{source} {what} [{contract.name}]: "
                f"{' -> '.join(reach.chain)}"
            ),
            witness=reach.chain,
        )
