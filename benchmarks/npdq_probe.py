#!/usr/bin/env python3
"""Where an NPDQ tick goes: frame, client set-up, descent, level kernel,
page loads, leaf tests and assembly.

Serves rounds exactly as ``bench/run.py`` does (``bench.rounds.run_round``:
build, register, ``ticks`` ticks of ``run_tick()`` plus polling every
client, every frame kept, drain) with the NPDQ sweep's entry points
wrapped in ``perf_counter`` timers that count only inside the timed
ticks (as ``benchmarks/gc_probe.py`` bounds them).  Each phase is charged its *self*
time: a timed call nested in another (the level kernel inside the
descent, the frame kernel inside ``frame_query``) is taken out of the
outer phase.  Phases:

* ``frame`` — every member's frame query (``QueryTrajectory.frame_query``;
  ``kernels.frame_windows`` and ``kernels.QueryBlock.frames`` where the
  checkout has them);
* ``setup`` — the sweep's client rows: ``npdq._Client.__init__`` and
  ``kernels.DiscardRule.of``, or ``npdq._Block.__init__``;
* ``descent`` — ``npdq._descend``'s own Python, the loads and the level
  kernel taken out;
* ``level`` — ``kernels.level_live_rows``;
* ``load`` — ``RTree.load_node`` (every caller's, the sweep's included);
* ``leaves`` — ``npdq._evaluate_leaves``, its segment kernels included;
* ``assemble`` — ``npdq._Client.assemble`` or ``npdq._Block.assemble``;
* ``other`` — the rest of the tick: the broker, the scheduler, polling.

Prints raw wall milliseconds a tick (not speed-normalised), averaged
over every tick of ``--rounds`` rounds, plus the timers' own overhead
as measured on an empty wrapped call::

    python3 benchmarks/npdq_probe.py --workload npdq_mid --seed 11 --rounds 3

``--smoke`` serves one round of the workload at ``Workload.smoke()``
scale and exits 1 unless every phase found an entry point and was
timed.  The timers wrap whichever entry points the checkout has, so the
same script measures a parent commit too.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import rounds  # noqa: E402
from bench.workloads import WORKLOADS, generate, round_inputs  # noqa: E402
from repro.core import npdq  # noqa: E402
from repro.core.trajectory import QueryTrajectory  # noqa: E402
from repro.geometry import kernels  # noqa: E402
from repro.index.rtree import RTree  # noqa: E402

PHASES = ("frame", "setup", "descent", "level", "load", "leaves", "assemble")

#: (owner, attribute, phase); an attribute the checkout lacks is skipped
ENTRY_POINTS = (
    (QueryTrajectory, "frame_query", "frame"),
    (kernels, "frame_windows", "frame"),
    (getattr(kernels, "QueryBlock", None), "frames", "frame"),
    (getattr(npdq, "_Client", None), "__init__", "setup"),
    (kernels.DiscardRule, "of", "setup"),
    (getattr(npdq, "_Block", None), "__init__", "setup"),
    (npdq, "_descend", "descent"),
    (kernels, "level_live_rows", "level"),
    (RTree, "load_node", "load"),
    (npdq, "_evaluate_leaves", "leaves"),
    (getattr(npdq, "_Client", None), "assemble", "assemble"),
    (getattr(npdq, "_Block", None), "assemble", "assemble"),
)


_build = rounds.build


class _Timers:
    """Self time per phase: a stack of open calls, each charged its
    elapsed time minus that of the timed calls nested in it."""

    def __init__(self) -> None:
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.calls = dict.fromkeys(PHASES, 0)
        self.found = set()
        self.in_tick = False
        self._open = []  # [started, nested seconds] per open call

    def wrap(self, fn, phase):
        clock, stack, spent, calls = time.perf_counter, self._open, self.spent, self.calls

        def timed(*args, **kwargs):
            calls[phase] += self.in_tick
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if self.in_tick:
                    spent[phase] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def install(self) -> None:
        for owner, name, phase in ENTRY_POINTS:
            if owner is None:
                continue
            raw = (vars(owner) if isinstance(owner, type) else owner.__dict__).get(name)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(raw.__func__, phase)))
            else:
                setattr(owner, name, self.wrap(raw, phase))
            self.found.add(phase)

    def perf_counter(self) -> float:
        """``bench.rounds``' clock: the read that closes a tick's timing
        ends the tick."""
        self.in_tick = False
        return time.perf_counter()

    def build(self, *args, **kwargs):
        """``bench.rounds``' deployment builder: a tick starts when
        ``run_tick`` is entered."""
        server = _build(*args, **kwargs)
        run_tick = server.broker.run_tick

        def timed_tick():
            self.in_tick = True
            return run_tick()

        server.broker.run_tick = timed_tick
        return server

    def overhead_s(self, calls: int = 20000) -> float:
        """Seconds one wrapped call of an empty function costs over a bare call."""
        def bare():
            return None

        timed, self.in_tick = self.wrap(bare, "frame"), True
        started = time.perf_counter()
        for _ in range(calls):
            timed()
        wrapped = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            bare()
        self.spent["frame"], self.calls["frame"], self.in_tick = 0.0, 0, False
        return (wrapped - (time.perf_counter() - started)) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="npdq_mid", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl, args.rounds = wl.smoke(), 1
    config, segments = generate(wl, args.seed)
    timers = _Timers()
    per_call = timers.overhead_s()
    timers.install()
    rounds.build = timers.build
    rounds.time = timers  # run_round reads only time.perf_counter
    ticks, tick_s = 0, 0.0
    with tempfile.TemporaryDirectory() as scratch:
        for r in range(args.rounds):
            inputs = round_inputs(wl, config, segments, args.seed, r)
            res = rounds.run_round(wl, config, segments, inputs, scratch)
            ticks += len(res.tick_s)
            tick_s += sum(res.tick_s)
    timed = sum(timers.spent.values())
    calls = sum(timers.calls.values())
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds, {ticks} ticks, "
          f"raw ms a tick")
    for phase in PHASES:
        print(f"  {phase:9s} {1e3 * timers.spent[phase] / ticks:7.3f}"
              f"   ({timers.calls[phase] / ticks:6.1f} calls)")
    print(f"  {'other':9s} {1e3 * (tick_s - timed) / ticks:7.3f}")
    print(f"  {'tick':9s} {1e3 * tick_s / ticks:7.3f}"
          f"   (timers ~{1e3 * per_call * calls / ticks:.3f} of it)")
    missing = [p for p in PHASES if p not in timers.found or not timers.spent[p]]
    if missing:
        print(f"no entry point timed for: {', '.join(missing)}", file=sys.stderr)
        return 1 if args.smoke else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
