"""Tests for the moving-query kNN extension."""

import math

import pytest

from repro.core.knn import MovingKNN, incremental_knn
from repro.errors import QueryError
from repro.index.codec import ChecksummedCodec, NativeNodeCodec
from repro.index.nsi import NativeSpaceIndex
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.metrics import QueryCost

from _helpers import ReferenceDecodeCodec, scalar_incremental_knn


def brute_knn(segments, t, point, k):
    dists = []
    for s in segments:
        if not s.time.contains(t):
            continue
        pos = s.position_at(t)
        dists.append((math.dist(pos, point), s.key))
    dists.sort()
    return dists[:k]


class TestIncremental:
    def test_matches_brute_force(self, tiny_native, tiny_segments, rng):
        for _ in range(10):
            t = rng.uniform(1, 14)
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
            got = []
            for rec, dist in incremental_knn(tiny_native, t, point):
                got.append((dist, rec.key))
                if len(got) == 5:
                    break
            want = brute_knn(tiny_segments, t, point, 5)
            assert [k for _, k in got] == [k for _, k in want]
            for (gd, _), (wd, _) in zip(got, want):
                assert gd == pytest.approx(wd)

    def test_distances_non_decreasing(self, tiny_native):
        out = []
        for rec, dist in incremental_knn(tiny_native, 5.0, (50.0, 50.0)):
            out.append(dist)
            if len(out) == 25:
                break
        assert out == sorted(out)

    def test_max_distance_prunes(self, tiny_native, tiny_segments):
        results = list(
            incremental_knn(tiny_native, 5.0, (50.0, 50.0), max_distance=3.0)
        )
        assert all(d <= 3.0 for _, d in results)
        want = [
            k for d, k in brute_knn(tiny_segments, 5.0, (50.0, 50.0), 10**9)
            if d <= 3.0
        ]
        assert [r.key for r, _ in results] == want

    def test_counts_cost(self, tiny_native):
        cost = QueryCost()
        for _ in zip(range(3), incremental_knn(tiny_native, 5.0, (50.0, 50.0), cost=cost)):
            pass
        assert cost.total_reads > 0

    def test_dim_mismatch(self, tiny_native):
        with pytest.raises(QueryError):
            next(incremental_knn(tiny_native, 5.0, (50.0,)))


class TestPageBackedIndex:
    """A store served as its pages' columns answers exactly as the
    entry-at-a-time walk does over the same pages served as entry lists."""

    @pytest.fixture()
    def stores(self, tiny_segments):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        disk = DiskManager(codec=codec, buffer_pool=BufferPool(64))
        index = NativeSpaceIndex(dims=2, disk=disk)
        index.bulk_load(tiny_segments[:600])
        for record in tiny_segments[600:700]:  # rows written after a decode
            index.insert(record)
        # the same page bytes, read back through the reference decode
        lists = DiskManager(codec=ReferenceDecodeCodec(codec))
        for _ in range(max(disk.page_ids()) + 1):
            lists.allocate()
        for page_id in disk.page_ids():
            lists.write(page_id, disk.read(page_id))
        meta = index.tree.recovery_meta()
        return index, NativeSpaceIndex(dims=2, disk=lists, restore_meta=meta)

    @pytest.mark.parametrize("max_distance", [25.0, math.inf])
    def test_same_stream_and_cost_as_entry_objects(
        self, stores, rng, max_distance
    ):
        columns, objects = stores
        # instants exactly on a stored validity endpoint (closed both sides)
        stored = list(objects.tree.all_leaf_entries())[::97]
        endpoints = [e.record.time.high for e in stored[:2]]
        endpoints.append(stored[2].record.time.low)
        answers = 0
        for t in endpoints + [rng.uniform(1, 14) for _ in range(4)]:
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
            runs = []
            for walk, index in (
                (incremental_knn, columns),
                (scalar_incremental_knn, objects),
            ):
                cost = QueryCost()
                stream = list(
                    zip(range(40), walk(index, t, point, cost, max_distance))
                )
                runs.append(([pair for _, pair in stream], cost))
            assert runs[0] == runs[1]
            answers += len(runs[0][0])
        assert answers > 40, "the probes found too little to compare"


class TestMovingKNN:
    def test_k_validation(self, tiny_native):
        with pytest.raises(QueryError):
            MovingKNN(tiny_native, k=0)

    def test_query_returns_k(self, tiny_native, tiny_segments):
        knn = MovingKNN(tiny_native, k=4)
        results = knn.query(5.0, (50.0, 50.0))
        assert len(results) == 4
        want = brute_knn(tiny_segments, 5.0, (50.0, 50.0), 4)
        assert [r.key for r, _ in results] == [k for _, k in want]

    def test_moving_sequence_matches_brute_force(
        self, tiny_native, tiny_segments
    ):
        knn = MovingKNN(tiny_native, k=3, max_step=0.5, max_object_step=0.5)
        t, x = 3.0, 30.0
        for _ in range(10):
            got = knn.query(t, (x, 50.0))
            want = brute_knn(tiny_segments, t, (x, 50.0), 3)
            assert [r.key for r, _ in got] == [k for _, k in want]
            t += 0.1
            x += 0.4

    def test_pruned_sequence_cheaper_than_unbounded(
        self, tiny_native
    ):
        def run(**kwargs):
            knn = MovingKNN(tiny_native, k=3, **kwargs)
            t, x = 3.0, 30.0
            for _ in range(15):
                knn.query(t, (x, 50.0))
                t += 0.1
                x += 0.2
            return knn.cost.distance_computations

        pruned = run(max_step=0.5, max_object_step=0.5)
        unbounded = run()
        assert pruned <= unbounded

    def test_teleport_falls_back_to_unbounded(self, tiny_native, tiny_segments):
        knn = MovingKNN(tiny_native, k=3, max_step=0.1)
        knn.query(5.0, (10.0, 10.0))
        # Jump across the space: the old bound is useless; results must
        # still be exact.
        got = knn.query(5.1, (90.0, 90.0))
        want = brute_knn(tiny_segments, 5.1, (90.0, 90.0), 3)
        assert [r.key for r, _ in got] == [k for _, k in want]

    def test_prune_bound_infinite_on_cold_start(self, tiny_native):
        knn = MovingKNN(tiny_native, k=3, max_step=0.5)
        assert math.isinf(knn.prune_bound)
        knn.query(5.0, (50.0, 50.0))
        assert not math.isinf(knn.prune_bound)

    def test_results_counted_once_per_frame(self, tiny_native):
        """Regression: a frame's answers used to be charged once by the
        bounded pass and again after re-sorting — ``cost.results`` must
        count exactly k per served frame, nothing more."""
        frames, k = 12, 4
        knn = MovingKNN(tiny_native, k=k, max_step=0.5, max_object_step=0.5)
        t, x = 3.0, 30.0
        for _ in range(frames):
            assert len(knn.query(t, (x, 50.0))) == k
            t += 0.1
            x += 0.4
        assert knn.cost.results == frames * k

    def test_teleport_charges_discarded_pass_separately(
        self, tiny_native
    ):
        knn = MovingKNN(tiny_native, k=3, max_step=0.1)
        knn.query(5.0, (10.0, 10.0))
        assert knn.cost.results == 3
        # Teleport far outside the data: the carried bound is provably
        # too tight, so the bounded pass is wasted work and must land in
        # discarded_cost, not inflate the answer accounting.
        got = knn.query(5.1, (5000.0, 5000.0))
        assert len(got) == 3
        assert knn.cost.results == 6
        assert knn.discarded_cost.results == 0
        assert knn.discarded_cost.distance_computations > 0
