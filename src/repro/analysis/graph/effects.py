"""The effect contracts: who may own an effect, and who may reach it.

:mod:`repro.analysis.graph.model` records every primitive effect site
(wall-clock reads, unseeded RNG, filesystem I/O, process/socket APIs,
numpy imports) where it textually happens.  :data:`EFFECT_CONTRACTS`
is the one table that says, per kind of site, which modules are bound
and which may own the effect; :class:`EffectRule` reads it twice:

* a site *inside* a bound module is reported at the site under the
  row's **direct** id (DQD01/02, DQL05–07);
* a bound module that can **reach** a site elsewhere is reported under
  the row's **reach** id (DQG02–04): every call site is propagated
  backwards over the call graph to a fixpoint, so a server module
  calling a helper that calls ``time.time()`` two modules away is
  charged with the wall-clock dependency even though its own text is
  clean.

Propagation is *call-based*: a function inherits the effects of every
function it calls, and importing a module inherits only that module's
import-time (top-level) effects — merely importing a module whose
*functions* do I/O charges you with nothing until you call one.  That
asymmetry is what keeps ``import repro`` in a leaf module from
inheriting the union of the whole library's effects.  Import-only
sites (``import socket``, ``import numpy``) never propagate: they are
charged to the importing module and nobody else.

A reach finding is reported once per (source module, effect kind,
defining module), anchored at the reaching function's ``def`` line,
with the function-level witness chain in the message and the
module-level chain in :attr:`Violation.witness`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.graph.model import (
    EDGE_EAGER,
    EDGE_LAZY,
    MODULE_BODY,
    EffectSite,
    GraphRule,
    ModuleInfo,
    Program,
    under_any,
)
from repro.analysis.rules import RuleDoc, Violation

__all__ = [
    "ENGINE_LAYERS",
    "EffectContract",
    "EFFECT_CONTRACTS",
    "EffectRule",
    "effect_reach",
]

#: A call-graph node: (dotted module, function qualname).
_Node = Tuple[str, str]


@dataclass(frozen=True)
class EffectContract:
    """One row: a kind of effect site, who is bound, who may own it.

    ``sources`` selects the bound modules (prefixes; empty means every
    ``repro`` module) minus ``owners``, the prefixes allowed to hold
    the effect.  ``direct`` is the catalogue entry a site *in* a bound
    module is reported under, with ``where`` completing its message;
    ``reach`` (None for import-only kinds) the entry a bound module
    *reaching* such a site elsewhere is reported under, with
    ``describe`` naming the effect there.
    """

    kind: str
    direct: RuleDoc
    where: str
    sources: Tuple[str, ...] = ()
    owners: Tuple[str, ...] = ()
    reach: Optional[RuleDoc] = None
    describe: str = ""

    def binds(self, module: str) -> bool:
        if self.sources and not under_any(module, self.sources):
            return False
        return not under_any(module, self.owners)


#: Everything the reproduction claims — bit-identical chaos replays,
#: answer-invariance of the shared-scan broker, crash recovery drills —
#: rests on runs being pure functions of their seeds, so these layers
#: are fenced off from ambient entropy; the CLI and the experiment
#: harness may still read wall-clock time for progress reporting.
ENGINE_LAYERS = (
    "repro.core",
    "repro.index",
    "repro.server",
    "repro.workload",
    "repro.motion",
)

_DQG02 = RuleDoc(
    "DQG02",
    "engine layer can transitively reach wall-clock or unseeded RNG",
    """Engine layers must not be able to reach wall-clock or unseeded RNG.

    Invariant: every run of the PDQ/NPDQ engines, the indexes, and the
    serving stack is a pure function of the workload and the simulated
    clock — reproducibility of the paper's experiments depends on it.
    DQD01/DQD02 flag an entropy source in the module that reads it;
    this id flags an engine module that can *reach* one through any
    chain of calls.""",
)

EFFECT_CONTRACTS: Tuple[EffectContract, ...] = (
    EffectContract(
        kind="wallclock",
        sources=ENGINE_LAYERS,
        direct=RuleDoc(
            "DQD01",
            "wall-clock time source in an engine layer",
            """**Invariant:** inside ``core``/``index``/``server``/``workload``/
            ``motion``, the only time source is
            :class:`~repro.server.clock.SimulatedClock` (or an explicit
            simulated-time parameter).  ``time.time()``, ``time.sleep()``,
            ``datetime.now()`` and friends make results depend on when and how
            fast the host runs, which breaks replayability and poisons the
            simulated latency accounting the serving benchmarks report.""",
        ),
        where="in an engine layer; only SimulatedClock may source time here",
        reach=_DQG02,
        describe="entropy source",
    ),
    EffectContract(
        kind="rng",
        sources=ENGINE_LAYERS,
        direct=RuleDoc(
            "DQD02",
            "unseeded or process-global randomness in an engine layer",
            """**Invariant:** every RNG in the engine layers is a
            ``random.Random(seed)`` instance threaded in explicitly.  The
            module-level ``random.*`` functions share one process-global,
            time-seeded state (any import anywhere can perturb the draw
            sequence), and a bare ``random.Random()`` seeds itself from the OS
            — both make workloads unreproducible across runs and machines.""",
        ),
        where="in an engine layer; thread a seeded random.Random instance "
        "through instead",
        reach=_DQG02,
        describe="entropy source",
    ),
    EffectContract(
        kind="fs",
        owners=(
            "repro.cli",
            "repro.analysis",
            "repro.storage.file",
            "repro.storage.wal",
        ),
        direct=RuleDoc(
            "DQL05",
            "filesystem I/O outside repro.storage.file / .wal / the CLI",
            """**Invariant:** the only modules allowed to touch the filesystem are
            :mod:`repro.storage.file` (the page files and snapshots),
            :mod:`repro.storage.wal` (the redo log) and the CLI (answer
            streams, store config, figure exports).  Everything else operates
            on in-memory state handed to it — that is what makes every engine
            and index testable against the simulated
            :class:`~repro.storage.disk.DiskManager`, and what guarantees crash
            recovery only ever has *two* on-disk artefact families to reason
            about.  The :mod:`repro.analysis` package itself is exempt: a
            linter must read the files it lints and persist its baseline.

            Flagged: calls to builtin ``open`` (and ``io.open``), the ``os``
            file calls (``open``/``fdopen``/``fsync``/``replace``/``rename``/
            ``remove``/``unlink``/``link``/``symlink``/``makedirs``/``mkdir``/
            ``rmdir``/``truncate``/``ftruncate``), and the writing
            ``pathlib.Path`` methods (``write_text``/``write_bytes``/
            ``open``/``mkdir``/``touch``/``unlink``).""",
        ),
        where="outside the storage boundary; only repro.storage.file, "
        "repro.storage.wal and the CLI may touch disk",
        reach=RuleDoc(
            "DQG03",
            "module can transitively reach filesystem I/O",
            """Only the durable-storage boundary may be able to touch the filesystem.

            Invariant: all real file I/O lives behind ``repro.storage.file`` /
            ``repro.storage.wal`` (plus the CLI and the analysis tooling that
            reads source trees), so simulation results can never depend on disk
            state.  DQL05 flags an ``open``/``os`` call in the module that
            makes it; this id closes the transitive hole where an engine module
            calls a helper that performs the I/O for it.""",
        ),
        describe="filesystem I/O",
    ),
    EffectContract(
        kind="process",
        owners=("repro.server.remote", "repro.cli"),
        direct=RuleDoc(
            "DQL06",
            "socket/subprocess/multiprocessing outside repro.server.remote",
            """**Invariant:** the only modules allowed to spawn processes or open
            sockets are the :mod:`repro.server.remote` package (the worker
            entrypoint and its multiplex front-end) and the CLI that launches
            them.  Everything else is single-process by construction — that is
            what makes the in-process and out-of-process brokers byte-identical
            (one lockstep clock, one writer per shard, no hidden concurrency),
            and what keeps the kill-chaos suites honest: a worker SIGKILL can
            only ever take down state the remote layer knows how to replay.

            Flagged: any import of ``socket``, ``subprocess`` or
            ``multiprocessing`` (including submodules and ``from`` imports),
            any call into them, the ``os.fork``/``exec*``/``spawn*``/``kill``/
            ``wait*`` family and ``asyncio.create_subprocess_*``, outside
            ``repro/server/remote/`` and ``repro/cli.py``.""",
        ),
        where="outside the remote serving boundary; only repro.server.remote "
        "and the CLI may spawn processes or open sockets",
        reach=RuleDoc(
            "DQG04",
            "module can transitively reach process/socket APIs",
            """Only the remote stack may be able to spawn processes or open sockets.

            Invariant: the single-process simulation semantics (and CI
            hermeticity) require that nothing outside
            ``repro.server.remote`` / the CLI can create subprocesses, sockets,
            or multiprocessing primitives.  DQL06 flags the import or call in
            the module that makes it; this id additionally catches a module
            that reaches ``subprocess.run`` or
            ``asyncio.create_subprocess_exec`` through an intermediary.""",
        ),
        describe="process/socket API",
    ),
    EffectContract(
        kind="numpy",
        owners=("repro.geometry.kernels",),
        direct=RuleDoc(
            "DQL07",
            "numpy import outside repro.geometry.kernels",
            """**Invariant:** one module owns the array representation.
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
            numpy freely.""",
        ),
        where="outside repro.geometry.kernels, the one module that owns the "
        "array representation",
    ),
)


def _resolve_call(
    program: Program, info: ModuleInfo, ref: Tuple
) -> List[_Node]:
    """Call-graph successors for one recorded call reference."""
    kind = ref[0]
    if kind == "local":
        name = ref[1]
        targets = []
        if name in info.functions:
            targets.append((info.name, name))
        if f"{name}.__init__" in info.functions:
            targets.append((info.name, f"{name}.__init__"))
        return targets
    if kind == "self":
        attr = ref[1]
        return [
            (info.name, qual)
            for qual in info.functions
            if qual.endswith(f".{attr}")
        ]
    # ("mod", dotted, attr): find the defining module, then the function
    # or class initializer of that name inside it.
    target_mod, target_attr = program.chase_export(ref[1], ref[2])
    target = program.modules.get(target_mod)
    if target is None or target_attr is None:
        return []
    targets = []
    if target_attr in target.functions:
        targets.append((target_mod, target_attr))
    if f"{target_attr}.__init__" in target.functions:
        targets.append((target_mod, f"{target_attr}.__init__"))
    return targets


def effect_reach(
    program: Program,
) -> Dict[_Node, Dict[EffectSite, Optional[_Node]]]:
    """Fixpoint: every effect site each call-graph node can reach.

    The value per (node, site) is the *first hop* — the callee through
    which the site was first discovered — so a witness chain can be
    reconstructed by following hops until ``None`` (the site's own
    node).
    """
    callers: Dict[_Node, List[_Node]] = {}
    edge_seen: Set[Tuple[_Node, _Node]] = set()

    def add_edge(caller: _Node, callee: _Node) -> None:
        if caller == callee or (caller, callee) in edge_seen:
            return
        edge_seen.add((caller, callee))
        callers.setdefault(callee, []).append(caller)

    for name in sorted(program.modules):
        info = program.modules[name]
        for edge in info.edges:
            # Importing a module runs (only) its top-level body.
            if edge.kind in (EDGE_EAGER, EDGE_LAZY) and (
                edge.dst in program.modules
            ):
                add_edge((name, edge.func), (edge.dst, MODULE_BODY))
        for qual, fn in info.functions.items():
            node = (name, qual)
            for ref in fn.calls:
                for callee in _resolve_call(program, info, ref):
                    add_edge(node, callee)

    reached: Dict[_Node, Dict[EffectSite, Optional[_Node]]] = {}
    work = deque()
    for name in sorted(program.modules):
        info = program.modules[name]
        for qual, fn in info.functions.items():
            own = {site: None for site in fn.effects if site.propagates}
            if own:
                reached[(name, qual)] = own
                work.append((name, qual))
    while work:
        node = work.popleft()
        sites = reached.get(node, {})
        for caller in callers.get(node, ()):
            store = reached.setdefault(caller, {})
            changed = False
            for site in sites:
                if site not in store:
                    store[site] = node
                    changed = True
            if changed:
                work.append(caller)

    return reached


def _witness(
    reached: Dict[_Node, Dict[EffectSite, Optional[_Node]]],
    node: _Node,
    site: EffectSite,
) -> Tuple[List[str], Tuple[str, ...]]:
    """(function-level chain for the message, module-level witness)."""
    funcs: List[str] = []
    modules: List[str] = []
    current: Optional[_Node] = node
    while current is not None:
        mod, qual = current
        funcs.append(mod if qual == MODULE_BODY else f"{mod}:{qual}")
        if not modules or modules[-1] != mod:
            modules.append(mod)
        current = reached.get(current, {}).get(site)
        if current is None:
            break
        if reached.get(current, {}).get(site, "missing") == "missing":
            break
    if not modules or modules[-1] != site.module:
        modules.append(site.module)
    return funcs, tuple(modules)


class EffectRule(GraphRule):
    """Every row of :data:`EFFECT_CONTRACTS`, direct and reach alike."""

    def docs(self) -> Tuple[RuleDoc, ...]:
        docs = (
            doc
            for contract in EFFECT_CONTRACTS
            for doc in (contract.direct, contract.reach)
            if doc is not None
        )
        return tuple(dict.fromkeys(docs))  # DQG02 is shared by two rows

    def check_program(self, program: Program) -> Iterator[Violation]:
        reached = effect_reach(program)
        for contract in EFFECT_CONTRACTS:
            for name in sorted(program.modules):
                if not contract.binds(name):
                    continue
                info = program.modules[name]
                yield from self._direct(contract, info)
                if contract.reach is not None:
                    yield from self._reaching(contract, info, reached)

    @staticmethod
    def _direct(
        contract: EffectContract, info: ModuleInfo
    ) -> Iterator[Violation]:
        for fn in info.functions.values():
            for site in fn.effects:
                if site.kind == contract.kind:
                    yield Violation(
                        rule=contract.direct.id,
                        path=info.display,
                        line=site.line,
                        col=site.col,
                        message=f"{site.what} {contract.where}",
                    )

    @staticmethod
    def _reaching(
        contract: EffectContract,
        info: ModuleInfo,
        reached: Dict[_Node, Dict[EffectSite, Optional[_Node]]],
    ) -> Iterator[Violation]:
        seen: Set[str] = set()
        ordered = sorted(
            info.functions.items(), key=lambda kv: (kv[1].lineno, kv[0])
        )
        for qual, fn in ordered:
            node = (info.name, qual)
            sites = reached.get(node, {})
            for site in sorted(sites, key=lambda s: (s.module, s.line, s.col)):
                if (
                    site.kind != contract.kind
                    or site.module == info.name
                    or site.module in seen
                ):
                    continue
                seen.add(site.module)
                funcs, witness = _witness(reached, node, site)
                yield Violation(
                    rule=contract.reach.id,
                    path=info.display,
                    line=fn.lineno,
                    col=0,
                    message=(
                        f"{info.name} can reach {contract.describe} "
                        f"{site.what} in {site.module}:{site.line} "
                        f"via {' -> '.join(funcs)}"
                    ),
                    witness=witness,
                )
