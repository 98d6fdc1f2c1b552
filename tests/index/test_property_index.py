"""Hypothesis fuzzing of the index substrate.

* random interleavings of inserts and deletes must preserve structural
  integrity and exact search results;
* the binary codecs must round-trip any node losslessly enough that no
  query result can be lost (boxes may only widen).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.box import Box
from repro.index.codec import DualTimeNodeCodec, NativeNodeCodec
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.rtree import RTree
from repro.storage.constants import PAGE_SIZE

from _helpers import assert_fsck_clean, make_segment


def random_leaf_entry(rng, oid):
    t0 = rng.uniform(0, 20)
    rec = make_segment(
        oid, 0, t0, t0 + rng.uniform(0.1, 2),
        (rng.uniform(0, 60), rng.uniform(0, 60)),
        (rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )
    return LeafEntry(rec.bounding_box(), rec)


class TestInterleavedOperations:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cap=st.integers(min_value=4, max_value=10),
    )
    def test_insert_delete_interleaving(self, seed, cap):
        rng = random.Random(seed)
        tree = RTree(axes=3, max_internal=cap, max_leaf=cap)
        alive = {}
        oid = 0
        for step in range(180):
            if alive and rng.random() < 0.35:
                victim = rng.choice(sorted(alive))
                entry = alive.pop(victim)
                assert tree.delete(entry.record.key, entry.box)
            else:
                entry = random_leaf_entry(rng, oid)
                tree.insert(entry)
                alive[oid] = entry
                oid += 1
            if step % 45 == 0:
                assert_fsck_clean(tree)
        assert_fsck_clean(tree)
        assert len(tree) == len(alive)
        # Exact search equivalence on a few probes.
        for _ in range(5):
            t0 = rng.uniform(0, 20)
            x0, y0 = rng.uniform(0, 60), rng.uniform(0, 60)
            q = Box.from_bounds((t0, x0, y0), (t0 + 2, x0 + 12, y0 + 12))
            got = {e.record.key for e in tree.search(q)}
            want = {
                e.record.key for e in alive.values() if e.box.overlaps(q)
            }
            assert got == want


def random_native_leaf_node(rng, entries):
    node = Node(rng.randrange(1000), 0, timestamp=rng.randrange(100))
    for i in range(entries):
        t0 = rng.uniform(0, 50)
        rec = make_segment(
            rng.randrange(10_000), rng.randrange(50),
            t0, t0 + rng.uniform(0.01, 3),
            (rng.uniform(-80, 80), rng.uniform(-80, 80)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        )
        node.entries.append(LeafEntry(rec.bounding_box(), rec))
    return node


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        entries=st.integers(min_value=1, max_value=127),
    )
    def test_native_leaf_round_trip_never_loses_coverage(self, seed, entries):
        rng = random.Random(seed)
        node = random_native_leaf_node(rng, entries)
        codec = NativeNodeCodec(2)
        data = codec.encode(node)
        assert len(data) <= PAGE_SIZE
        out = codec.decode(data)
        assert len(out.entries) == len(node.entries)
        for orig, dec in zip(node.entries, out.entries):
            assert dec.record.key == orig.record.key
            # The decoded (padded) index box must cover the decoded
            # record's true box: queries can only gain candidates.
            assert dec.box.contains_box(dec.record.bounding_box())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        entries=st.integers(min_value=1, max_value=113),
    )
    def test_internal_round_trip_close(self, seed, entries):
        rng = random.Random(seed)
        node = Node(rng.randrange(1000), rng.randrange(1, 5))
        for i in range(entries):
            lows = [rng.uniform(-100, 100) for _ in range(4)]
            highs = [lo + rng.uniform(0, 20) for lo in lows]
            node.entries.append(
                InternalEntry(Box.from_bounds(lows, highs), i)
            )
        codec = DualTimeNodeCodec(2)
        data = codec.encode(node)
        assert len(data) <= PAGE_SIZE
        out = codec.decode(data)
        assert [e.child_id for e in out.entries] == [
            e.child_id for e in node.entries
        ]
        for orig, dec in zip(node.entries, out.entries):
            for axis in range(4):
                a, b = orig.box.extent(axis), dec.box.extent(axis)
                scale = 1 + abs(a.low) + abs(a.high)
                assert abs(a.low - b.low) <= 1e-4 * scale
                assert abs(a.high - b.high) <= 1e-4 * scale
