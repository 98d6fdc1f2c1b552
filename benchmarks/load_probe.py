#!/usr/bin/env python3
"""Where a sharded tier's set-up goes: route, note, pack, worker load, bulk load.

Builds both sharded tiers over a generated population as the benchmark
builds them (``over_segments`` with the data space as the grid bounds,
``ServerConfig()`` defaults, native and dual indexes) and times the load
path from outside with ``perf_counter``:

* ``convert`` — the shards' buckets turned into columns
  (``SegmentTable.of``; none in an older checkout);
* ``route`` — shard routing (``ShardRouter.route``, or the per-segment
  ``ShardRouter.shards_for_segment`` of an older checkout; the
  conversion of each routed chunk is in ``build`` only);
* ``note`` — the front-end's per-shard record count and domain
  (``MultiplexBroker._note``; ``_WorkerHandle._note``, the process tier
  alone, in an older checkout);
* ``pack`` — framing the LOAD messages (``protocol.pack_frame``);
* ``load rt`` — the slowest worker's LOAD round trip (pack, pipe, the
  worker's decode and bulk load, reply);
* ``bulk`` — the in-process shards' bulk loads (``IndexShard.load``);
* ``build`` — all of ``over_segments``, worker spawn and HELLO included.

Prints raw wall seconds (not speed-normalised), the median of
``--rounds`` builds per tier and shard count::

    python3 benchmarks/load_probe.py --scale small --shards 2 4 --rounds 3
    python3 benchmarks/load_probe.py --scale paper --shards 2 4 --rounds 1

``--check`` times nothing.  For K in 2, 4 and 8 it asserts that every
in-process shard is loaded with exactly the keys, in population order,
that the per-segment Box-algebra routing (``tests/_helpers.py``'s
``box_buckets``) sends it, and that each process worker's record count
and domain, as its front-end noted them and as the worker reports them,
equal the in-process shard's (its domain read off its tree's root).  Exit status 1 on a mismatch.

The timers wrap whichever entry points the checkout has, so the same
script measures a parent commit too.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.workloads import as_stored  # noqa: E402
from repro.motion import segment as segment_mod  # noqa: E402
from repro.server import MultiplexBroker, RemoteMultiplexBroker  # noqa: E402
from repro.server import ServerConfig, SimulatedClock  # noqa: E402
from repro.server.remote import broker as remote_mod  # noqa: E402
from repro.server.remote import protocol  # noqa: E402
from repro.server.planner import IndexStats  # noqa: E402
from repro.server.shard import IndexShard, ShardRouter  # noqa: E402
from repro.workload.config import WorkloadConfig  # noqa: E402
from repro.workload.objects import generate_motion_segments  # noqa: E402
from tests._helpers import box_buckets  # noqa: E402

TIERS = {"mux": MultiplexBroker, "proc": RemoteMultiplexBroker}
COLUMNS = ("convert", "route", "note", "pack", "load rt", "bulk", "build")

#: seconds per timer since the last reset
totals = defaultdict(float)
#: what each in-process shard was loaded with: shard id -> keys
loaded = {}


def _timed(owner, name, key, when=lambda args: True):
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            if when(args):
                totals[key] += time.perf_counter() - started

    setattr(owner, name, timed)


def _install() -> None:
    table = getattr(segment_mod, "SegmentTable", None)
    if table is not None:
        _timed(table, "of", "convert")  # a bound classmethod, set back plain
    if hasattr(ShardRouter, "route"):
        _timed(ShardRouter, "route", "route")
    else:
        _timed(ShardRouter, "shards_for_segment", "route")
    if hasattr(MultiplexBroker, "_note"):
        _timed(MultiplexBroker, "_note", "note")
    else:
        _timed(remote_mod._WorkerHandle, "_note", "note")
    _timed(protocol, "pack_frame", "pack", lambda a: a[0] == protocol.MSG_LOAD)

    bulk = IndexShard.load

    def load(shard, rows):
        ids = getattr(rows, "ids", None)
        keys = [r.key for r in rows] if ids is None else list(map(tuple, ids.tolist()))
        loaded[shard.shard_id] = keys
        started = time.perf_counter()
        try:
            return bulk(shard, rows)
        finally:
            totals["bulk"] += time.perf_counter() - started

    IndexShard.load = load

    roundtrip = remote_mod.RemoteMultiplexBroker._roundtrip

    async def timed_roundtrip(self, handle, msg_type, payload):
        started = time.perf_counter()
        try:
            return await roundtrip(self, handle, msg_type, payload)
        finally:
            if msg_type == protocol.MSG_LOAD:
                elapsed = time.perf_counter() - started
                totals["load rt"] = max(totals["load rt"], elapsed)

    remote_mod.RemoteMultiplexBroker._roundtrip = timed_roundtrip


def _build(tier: str, segments, shards: int, side: float):
    started = time.perf_counter()
    broker = TIERS[tier].over_segments(
        segments,
        shards=shards,
        dual=True,
        clock=SimulatedClock(start=1.0, period=0.1),
        config=ServerConfig(),
        bounds=([0.0, 0.0], [side, side]),
    )
    totals["build"] += time.perf_counter() - started
    return broker


def _check(segments, side: float) -> bool:
    ok = True
    for shards in (2, 4, 8):
        loaded.clear()
        mux = _build("mux", segments, shards, side)
        proc = _build("proc", segments, shards, side)
        try:
            oracle = box_buckets(mux.plan, segments, mux._route_inflation)
            got = [loaded.get(i, []) for i in range(shards)]
            reports = proc._shard_reports()
            for i, shard in enumerate(mux.shards):
                records, domain = proc._routed[i]
                same = (
                    got[i] == oracle[i],
                    records == shard.record_count == reports[i]["records"],
                    domain == mux._routed[i][1]
                    == IndexStats.from_index(shard.native).domain,
                )
                print(
                    f"K={shards} shard {i}: {len(oracle[i])} rows, bucket "
                    f"{'ok' if same[0] else 'DIFFERS'}, worker records "
                    f"{'ok' if same[1] else 'DIFFER'}, domain "
                    f"{'ok' if same[2] else 'DIFFERS'}"
                )
                ok = ok and all(same)
        finally:
            proc.close()
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--tiers", nargs="+", default=sorted(TIERS), choices=sorted(TIERS))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    config = getattr(WorkloadConfig, args.scale)(seed=args.seed)
    started = time.perf_counter()
    segments = as_stored(generate_motion_segments(config))
    print(
        f"{args.scale} scale, seed {args.seed}: {len(segments)} segments "
        f"generated in {time.perf_counter() - started:.1f} s"
    )
    _install()
    if args.check:
        ok = _check(segments, config.space_side)
        print("bucket identity: " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    print("raw wall seconds, median of", args.rounds, "builds")
    print(f"{'tier':<5} {'K':>2} " + " ".join(f"{c:>8}" for c in COLUMNS))
    for tier in args.tiers:
        for shards in args.shards:
            runs = []
            for _ in range(args.rounds):
                totals.clear()
                broker = _build(tier, segments, shards, config.space_side)
                broker.close()
                runs.append(dict(totals))
            row = [statistics.median(r.get(c, 0.0) for r in runs) for c in COLUMNS]
            print(f"{tier:<5} {shards:>2} " + " ".join(f"{v:8.3f}" for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
