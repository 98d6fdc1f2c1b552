"""Scalar geometry reference vs the batch kernels, on one page.

The engines evaluate every loaded page with the kernels of
:mod:`repro.geometry.kernels`; the scalar functions in
:mod:`repro.geometry.trapezoid` are the reference they must equal.
This harness holds both halves of that bargain on a ~256-entry page:

* **Bit-identical answers.**  The kernels return exactly the intervals
  the scalar loop returns.
* **Real speedup.**  One kernel call must beat 256 scalar calls by at
  least 3× (it typically manages 6–10×).

What the kernels are worth to a whole fleet is not measured here — a
path cannot be timed against itself — but by the serving benchmark
(``bench/``; EXPERIMENTS.md has the before/after table).

The committed ``BENCH_geometry_kernels.json`` artifact records the
structural fields (bit-for-bit reproducible on rerun) plus the measured
speedups; timings are wall-clock and listed under
``nondeterministic_fields`` so review diffs on them read as machine
noise, not behaviour change.
"""

from __future__ import annotations

import random
import time

from _bench_common import emit, write_bench_artifact

from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.geometry.trapezoid import (
    MovingWindow,
    moving_window_box_overlap,
    moving_window_segment_overlap,
)

PAGE_ENTRIES = 256
MICRO_REPEATS = 50
MICRO_ROUNDS = 5
SPEEDUP_BAR = 3.0


def _best(timer):
    """Best-of-N wall time — the least-noise estimate of the loop cost."""
    times = []
    result = None
    for _ in range(MICRO_ROUNDS):
        elapsed, result = timer()
        times.append(elapsed)
    return min(times), result


def test_page_evaluation_microbenchmark():
    """One kernel call per page vs one Python call per entry."""
    rng = random.Random(42)
    segs = [
        SpaceTimeSegment(
            Interval(0.0, 8.0),
            (rng.uniform(0, 100), rng.uniform(0, 100)),
            (rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        for _ in range(PAGE_ENTRIES)
    ]
    page_boxes = [
        Box.from_bounds(
            (0.0, min(s.origin[0], s.origin[0] + 8 * s.velocity[0]),
             min(s.origin[1], s.origin[1] + 8 * s.velocity[1])),
            (8.0, max(s.origin[0], s.origin[0] + 8 * s.velocity[0]),
             max(s.origin[1], s.origin[1] + 8 * s.velocity[1])),
        )
        for s in segs
    ]
    window = MovingWindow(
        Interval(1.0, 6.0),
        Box.from_bounds((10.0, 10.0), (60.0, 60.0)),
        Box.from_bounds((30.0, 30.0), (80.0, 80.0)),
    )
    seg_batch = kernels.SegmentBatch(
        [s.time.low for s in segs],
        [s.time.high for s in segs],
        [s.origin for s in segs],
        [s.velocity for s in segs],
    )
    box_batch = kernels.BoxBatch(
        [b.lows for b in page_boxes], [b.highs for b in page_boxes]
    )
    params = kernels.window_params(window)

    def scalar_segments():
        t0 = time.perf_counter()
        for _ in range(MICRO_REPEATS):
            out = [moving_window_segment_overlap(window, s) for s in segs]
        return time.perf_counter() - t0, out

    def batch_segments():
        t0 = time.perf_counter()
        for _ in range(MICRO_REPEATS):
            out = kernels.moving_window_segment_overlap_batch(
                params, seg_batch
            )
        return time.perf_counter() - t0, out

    def scalar_boxes():
        t0 = time.perf_counter()
        for _ in range(MICRO_REPEATS):
            out = [moving_window_box_overlap(window, b) for b in page_boxes]
        return time.perf_counter() - t0, out

    def batch_boxes():
        t0 = time.perf_counter()
        for _ in range(MICRO_REPEATS):
            out = kernels.moving_window_box_overlap_batch(params, box_batch)
        return time.perf_counter() - t0, out

    rows = []
    lines = [
        f"page evaluation, {PAGE_ENTRIES} entries, best of {MICRO_ROUNDS}",
        f"{'kernel':>22} {'scalar ms':>10} {'batch ms':>10} {'speedup':>8}",
    ]
    for name, scalar, batch in (
        ("segment_overlap", scalar_segments, batch_segments),
        ("box_overlap", scalar_boxes, batch_boxes),
    ):
        t_scalar, want = _best(scalar)
        t_batch, got = _best(batch)
        assert got == want, f"{name}: batch diverged from scalar"
        speedup = t_scalar / t_batch
        rows.append(
            {
                "kernel": name,
                "entries": PAGE_ENTRIES,
                "identical": True,
                "scalar_ms": round(1e3 * t_scalar / MICRO_REPEATS, 4),
                "batch_ms": round(1e3 * t_batch / MICRO_REPEATS, 4),
                "speedup": round(speedup, 2),
            }
        )
        lines.append(
            f"{name:>22} {1e3 * t_scalar / MICRO_REPEATS:>10.4f} "
            f"{1e3 * t_batch / MICRO_REPEATS:>10.4f} {speedup:>8.2f}"
        )
        assert speedup >= SPEEDUP_BAR, (
            f"{name}: {speedup:.2f}x is under the {SPEEDUP_BAR}x bar"
        )
    emit("\n".join(lines))
    write_bench_artifact(
        "geometry_kernels",
        {
            "page_microbenchmark": rows,
            "speedup_bar": SPEEDUP_BAR,
            "nondeterministic_fields": [
                "page_microbenchmark[].scalar_ms",
                "page_microbenchmark[].batch_ms",
                "page_microbenchmark[].speedup",
            ],
        },
    )
