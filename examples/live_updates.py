#!/usr/bin/env python3
"""Live fleet tracking: dynamic queries under concurrent insertions.

The paper's update-management scenario (Sect. 4.1, Fig. 4): motion
updates keep arriving while dynamic queries are running.  A dispatcher
watches a moving corridor of the city with a PDQ while delivery vans
report fresh motion updates every frame; newly inserted segments that
will cross the corridor must reach the dispatcher without re-running
the query.

Run:  python examples/live_updates.py
"""

import random

from repro import (
    Interval,
    MobileObject,
    NativeSpaceIndex,
    PDQEngine,
    PeriodicUpdatePolicy,
    QueryTrajectory,
)
from repro.workload.scenarios import city_scenario

FRAME_PERIOD = 0.1


def main() -> None:
    rng = random.Random(99)
    world = city_scenario(seed=4)

    # Pre-load the index with history up to t=10; the rest of each van's
    # updates stream in live, as they would in deployment.
    history, live_stream = [], []
    for seg in world.segments:
        (history if seg.time.low < 10.0 else live_stream).append(seg)
    live_stream.sort(key=lambda s: s.time.low)

    index = NativeSpaceIndex(dims=2, page_size=1024)  # smaller pages ->
    # more nodes -> splits happen during the demo, exercising Fig. 4.
    index.bulk_load(history)
    print(f"city: {world.object_count} objects; "
          f"{len(history)} historical segments indexed, "
          f"{len(live_stream)} live updates queued")

    corridor = QueryTrajectory.linear(
        start_time=10.0, end_time=20.0,
        start_center=(25.0, 50.0), velocity=(4.5, 0.0),
        half_extents=(8.0, 8.0),
    )

    stream_pos = 0
    delivered = []
    splits = 0

    def count_splits(notices):
        # a listener hears each committed write batch's notices at once
        nonlocal splits
        splits += sum(notice.subtree_id is not None for notice in notices)

    index.tree.add_listener(count_splits)
    with PDQEngine(index, corridor) as pdq:
        times = corridor.frame_times(FRAME_PERIOD)
        for a, b in zip(times, times[1:]):
            # Ingest all motion updates reported during this frame.
            while (
                stream_pos < len(live_stream)
                and live_stream[stream_pos].time.low <= b
            ):
                index.insert(live_stream[stream_pos])
                stream_pos += 1
            arrivals = pdq.window(a, b)
            delivered.extend(arrivals)
            for item in arrivals[:2]:
                label = world.labels.get(item.object_id, "?")
                print(f"  t={b:5.1f} {label} enters the corridor "
                      f"(visible until {item.disappears_at:.1f})")
        io = pdq.cost.total_reads
    index.tree.remove_listener(count_splits)

    print(f"\ningested {stream_pos} live updates "
          f"({splits} of them split index nodes)")
    print(f"delivered {len(delivered)} corridor entries with "
          f"{io} disk accesses over {len(times) - 1} frames")

    # Verify: every live-streamed segment that crosses the corridor after
    # its insertion time was delivered.
    delivered_keys = {item.key for item in delivered}
    expected = 0
    for seg in live_stream[:stream_pos]:
        visibility = corridor.segment_overlap(seg.segment)
        if not visibility.is_empty and visibility.end >= seg.time.low:
            expected += 1
            assert seg.key in delivered_keys, seg
    print(f"cross-checked {expected} live arrivals: all delivered")


if __name__ == "__main__":
    main()
