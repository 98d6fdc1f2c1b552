#!/usr/bin/env python3
"""The serving benchmark's one command.

The driver's contract (``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1

builds the workload's inputs from the seed, serves it closed-loop in
*rounds* (set up, ``ticks`` ticks, drain — ``bench/rounds.py``) until
``N`` seconds are used and at least ``MIN_ROUNDS`` rounds are done,
checks a sample of the answers against brute force, and prints every
metric by name with its unit; the last line is the contract's JSON.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
repeats round 0 under ``bench/trace.py`` and prints the per-layer ones.

Without ``--workload`` it runs every workload both ways, each in a
process of its own (peak RSS is per process), and writes the records to
``--out`` — the files ``bench/compare.py`` reads and ``bench/results/``
keeps.  ``--smoke`` shrinks everything to ``WorkloadConfig.tiny``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench/run.py: nothing to measure, {ROOT}/src/repro is missing")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from bench import calibrate, layers  # noqa: E402
from bench.check import answer_digest, check_round  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, TIME_UNITS, is_timing  # noqa: E402
from bench.rounds import RoundResult, run_round  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, Workload, generate, round_inputs  # noqa: E402

#: Rounds every run makes, however short ``--seconds`` is; counts and the
#: answer digest cover exactly these, so they repeat for a seed.
MIN_ROUNDS = 3
#: Frames checked against brute force in each round (>= 200 per run).
SAMPLE_PER_ROUND = 80
#: Everything a run writes (durable stores, traces) goes here and is
#: removed again, except the trace files.
RUN_DIR = os.path.join(ROOT, ".bench_run")


def _percentile(sorted_values: List[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * share))]


class Run:
    """One workload, one seed: rounds, their checks and their tallies."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        started = time.perf_counter()
        self.config, self.segments = generate(wl, seed)
        self.generate_s = time.perf_counter() - started
        self.scratch = os.path.join(RUN_DIR, f"{wl.name}-{os.getpid()}")
        self.attempted = self.failed = 0
        self.digests: List[str] = []

    def round(self, r: int, wl: Optional[Workload] = None, tracer=None) -> RoundResult:
        """Serve round ``r`` (optionally on another tier, or traced),
        check a sample of its frames, tally, and drop the frames."""
        wl = wl or self.wl
        inputs = round_inputs(self.wl, self.config, self.segments, self.seed, r)
        res = run_round(wl, self.config, self.segments, inputs, self.scratch, tracer)
        frames = sum(len(stream) for stream in res.frames.values())
        degraded = sum(f.degraded for stream in res.frames.values() for f in stream)
        _checked, wrong = check_round(
            wl, self.segments, inputs, res.frames, self.seed + r, SAMPLE_PER_ROUND
        )
        self.attempted += wl.clients * wl.ticks
        self.failed += (wl.clients * wl.ticks - frames) + degraded + wrong
        self.digests.append(answer_digest(res.frames))
        res.frames = {}
        return res

    def expect_same_answers(self, what: str, a: int, b: int) -> None:
        """Rounds ``a`` and ``b`` served the same inputs: any difference
        between their answer streams is a failure."""
        if self.digests[a] != self.digests[b]:
            print(f"answer digest mismatch: {what}")
            self.failed += 1

    def peak_rss_mb(self, rounds: List[RoundResult]) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + max(r.worker_rss_kb for r in rounds)) / 1024.0


def _ticks_per_s(res: RoundResult, normalised: bool = True) -> float:
    ticks = res.tick_s[1:]
    if normalised:
        ticks = [t / s for t, s in zip(ticks, res.tick_speed[1:])]
    return len(ticks) / sum(ticks)


def end_to_end(run: Run, seconds: float, min_rounds: int) -> Tuple[Dict, Dict]:
    """Rounds until ``seconds`` are used; the end-to-end metrics (times
    normalised to nominal speed) and the record's other fields."""
    wl = run.wl
    rounds: List[RoundResult] = []
    started = time.perf_counter()
    longest = 0.0
    while len(rounds) < min_rounds or (
        time.perf_counter() - started + longest <= seconds
    ):
        round_started = time.perf_counter()
        rounds.append(run.round(len(rounds)))
        longest = max(longest, time.perf_counter() - round_started)
    peak_rss = run.peak_rss_mb(rounds)

    wall = [t for r in rounds for t in r.tick_s[1:]]
    norm = sorted(
        t / s for r in rounds for t, s in zip(r.tick_s[1:], r.tick_speed[1:])
    )
    per_round = {
        "setup_s": [r.setup_nominal_s for r in rounds],
        "first_tick_ms": [r.tick_s[0] / r.tick_speed[0] * 1e3 for r in rounds],
        "ticks_per_s": [_ticks_per_s(r) for r in rounds],
    }
    values = {name: statistics.median(v) for name, v in per_round.items()}
    values["tick_p50_ms"] = statistics.median(norm) * 1e3
    values["tick_p95_ms"] = _percentile(norm, 0.95) * 1e3
    values["peak_rss_mb"] = peak_rss
    counted = rounds[:MIN_ROUNDS]
    extra = {
        "rounds": len(rounds),
        "digest_rounds": len(counted),
        "tick_samples": len(norm),
        "per_round": per_round,
        "wall": {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "first_tick_ms": statistics.median(r.tick_s[0] for r in rounds) * 1e3,
            "ticks_per_s": statistics.median(_ticks_per_s(r, False) for r in rounds),
            "tick_p50_ms": statistics.median(wall) * 1e3,
            "tick_p95_ms": _percentile(sorted(wall), 0.95) * 1e3,
            "drain_s": statistics.median(r.drain_s for r in rounds),
            "speed": statistics.median(r.speed for r in rounds),
        },
        "deterministic": {
            "physical_reads_per_tick": sum(sum(r.reads) for r in counted)
            / (len(counted) * wl.ticks),
            "updates_applied": sum(r.summary.updates_applied for r in counted),
            "expired": sum(r.expired for r in counted),
        },
    }
    return values, extra


def per_layer(run: Run) -> Tuple[Dict, Dict]:
    """Round 0 untraced, then again under the tracer, then the
    micro-timings; the per-layer metrics and the record's other fields."""
    wl = run.wl
    plain = run.round(0)
    with Tracer() as tracer:
        traced = run.round(0, tracer=tracer)
    run.expect_same_answers("traced vs untraced", 0, 1)
    os.makedirs(RUN_DIR, exist_ok=True)
    tracer.dump(
        os.path.join(RUN_DIR, f"trace_{wl.name}.json"),
        {"workload": wl.name, "seed": run.seed, "ticks": wl.ticks},
    )

    units = {m.name: m.unit for m in PER_LAYER}

    def at_nominal(values: Dict[str, float], speed: float) -> Dict[str, float]:
        """Times (and rates) as they would read at nominal speed."""
        return {
            name: value / speed ** TIME_UNITS.get(units[name], 0.0)
            for name, value in values.items()
        }

    values = at_nominal(layers.derive(wl, run.segments, traced, tracer), traced.speed)
    speed_before = calibrate.speed()
    micro = layers.micro(run.segments)
    values.update(at_nominal(micro, (speed_before + calibrate.speed()) / 2.0))
    values["workload.objects.generate_s"] = run.generate_s
    values["first_tick_ms"] = plain.tick_s[0] / plain.tick_speed[0] * 1e3
    values["drain_s"] = plain.drain_s / plain.speed
    load_s = plain.build_nominal_s
    values["server.shard.route_load_s"] = load_s if wl.shards > 1 else 0.0
    values["server.remote.load_s"] = load_s if wl.tier == "proc" else 0.0
    values["physical_reads_per_tick"] = sum(plain.reads) / wl.ticks
    values["server.shard.replication_factor"] = layers.replication_factor(
        wl, run.config, run.segments
    )

    own = _ticks_per_s(plain)
    values["trace.overhead_share"] = 1.0 - _ticks_per_s(traced) / own
    k1 = own
    if wl.shards > 1:
        # the same fleet through one unsharded QueryBroker
        k1 = _ticks_per_s(run.round(0, dataclasses.replace(wl, tier="broker", shards=1)))
        run.expect_same_answers("sharded vs unsharded", 0, -1)
    values["server.shard.k1_ticks_per_s"] = k1
    values["server.shard.speedup_vs_k1"] = own / k1
    values["failed_share"] = run.failed / run.attempted

    # where a steady tick's milliseconds go: self time per span name
    steady = tracer.totals(1, wl.ticks - 1)
    self_ms = {
        name: row["self_s"] / (wl.ticks - 1) / traced.speed * 1e3
        for name, row in steady.items()
    }
    extra = {
        "rounds": len(run.digests),
        "digest_rounds": 1,
        "trace_root_gap": tracer.worst_root_gap(),
        "spans": len(tracer.spans),
        "self_ms_per_tick": dict(sorted(self_ms.items(), key=lambda kv: -kv[1])),
        "wall": {"speed": traced.speed},
        "deterministic": {},
    }
    return values, extra


def environment() -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    """The contract command: one workload, traced or not."""
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    spec = PER_LAYER if args.trace else END_TO_END
    run = Run(wl, args.seed)
    try:
        if args.trace:
            values, extra = per_layer(run)
        else:
            # a smoke run is one round, whatever --seconds says
            budget, rounds = (0.0, 1) if args.smoke else (args.seconds, MIN_ROUNDS)
            values, extra = end_to_end(run, budget, rounds)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in spec}
    digest = hashlib.sha256(
        "".join(run.digests[: extra.pop("digest_rounds")]).encode()
    ).hexdigest()
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {extra['rounds']}  segments {len(run.segments)}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra["wall"].items():
        print(f"  wall.{name:<47} {value:>14.6g}")
    for name, value in list(extra.get("self_ms_per_tick", {}).items())[:8]:
        print(f"  self.{name:<47} {value:>14.6g} ms/tick")
    print(f"  answer_digest {digest}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.out:
        timing = {m.name for m in spec if is_timing(m)}
        if args.trace:
            # every per-layer count repeats exactly for a seed
            extra["deterministic"].update(
                (name, value) for name, value in values.items() if name not in timing
            )
        extra["deterministic"].update(
            answer_digest=digest, segments=len(run.segments)
        )
        record = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, **result, **extra,
            "nondeterministic_fields": sorted(timing) + [
                k for k in ("per_round", "wall", "self_ms_per_tick", "trace_root_gap")
                if k in extra
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, one process each."""
    os.makedirs(RUN_DIR, exist_ok=True)
    records, status = [], 0
    for _ in range(args.repeat):
        for name in WORKLOADS:
            for trace in (0, 1):
                part = os.path.join(RUN_DIR, f"{name}-{trace}-{os.getpid()}.json")
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", part,
                ] + (["--smoke"] if args.smoke else [])
                status |= subprocess.run(command, cwd=ROOT).returncode
                if os.path.exists(part):
                    with open(part, encoding="utf-8") as fh:
                        records.append(json.load(fh))
                    os.remove(part)
    # the pair serves byte-identical inputs: their answers must agree
    digests = {
        r["workload"]: r["deterministic"]["answer_digest"]
        for r in records
        if r["trace"] == 0
    }
    if digests.get("spread_mux2") != digests.get("spread_proc2"):
        print("answer digest mismatch: spread_mux2 vs spread_proc2")
        status |= 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"seed": args.seed, "environment": environment(), "runs": records},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes over every workload (without --workload)")
    parser.add_argument("--out", help="write the full record(s) as JSON")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
