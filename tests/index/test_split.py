"""Tests for node splitting, including the forced same-path constraint."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexStructureError
from repro.geometry.box import Box
from repro.index.entry import InternalEntry
from repro.index.split import SPLITTERS, quadratic_split


def entries_from(boxes):
    return [InternalEntry(b, i) for i, b in enumerate(boxes)]


def random_entries(rng, n, dims=2):
    out = []
    for i in range(n):
        lows = [rng.uniform(0, 100) for _ in range(dims)]
        highs = [lo + rng.uniform(0, 10) for lo in lows]
        out.append(InternalEntry(Box.from_bounds(lows, highs), i))
    return out


@pytest.fixture(params=["quadratic", "linear", "rstar"])
def splitter(request):
    return SPLITTERS[request.param]


class TestValidation:
    def test_too_few_entries_rejected(self, splitter):
        with pytest.raises(IndexStructureError):
            splitter(random_entries(random.Random(0), 1), 1, None)

    def test_min_fill_too_large_rejected(self, splitter):
        es = random_entries(random.Random(0), 4)
        with pytest.raises(IndexStructureError):
            splitter(es, 3, None)

    def test_min_fill_zero_rejected(self, splitter):
        es = random_entries(random.Random(0), 4)
        with pytest.raises(IndexStructureError):
            splitter(es, 0, None)

    def test_missing_pinned_entry_rejected(self, splitter):
        es = random_entries(random.Random(0), 6)
        with pytest.raises(IndexStructureError):
            splitter(es, 2, ("node", 999))


class TestInvariants:
    def test_no_entries_lost_or_duplicated(self, splitter):
        es = random_entries(random.Random(1), 20)
        keep, new = splitter(es, 8, None)
        assert sorted(e.child_id for e in keep + new) == list(range(20))

    def test_min_fill_respected(self, splitter):
        for seed in range(10):
            es = random_entries(random.Random(seed), 15)
            keep, new = splitter(es, 6, None)
            assert len(keep) >= 6 and len(new) >= 6

    def test_clustered_data_separates(self, splitter):
        # Two tight clusters far apart must end up in different groups.
        cluster_a = [
            Box.from_bounds((i * 0.1, 0.0), (i * 0.1 + 1, 1.0)) for i in range(5)
        ]
        cluster_b = [
            Box.from_bounds((100 + i * 0.1, 0.0), (100 + i * 0.1 + 1, 1.0))
            for i in range(5)
        ]
        keep, new = splitter(entries_from(cluster_a + cluster_b), 2, None)
        groups = [set(e.child_id for e in keep), set(e.child_id for e in new)]
        assert {0, 1, 2, 3, 4} in groups
        assert {5, 6, 7, 8, 9} in groups

    def test_pinned_entry_lands_in_new_group(self, splitter):
        for seed in range(10):
            es = random_entries(random.Random(seed), 12)
            pinned = es[seed % 12].key
            keep, new = splitter(es, 4, pinned)
            assert any(e.key == pinned for e in new)
            assert not any(e.key == pinned for e in keep)

    def test_pinning_does_not_change_partition(self, splitter):
        """Pinning only chooses which half is 'new' — the two groups are
        the same sets either way (the paper: 'no extra cost nor conflict
        with the original splitting policy')."""
        es = random_entries(random.Random(42), 12)
        keep0, new0 = splitter(es, 4, None)
        unpinned = {frozenset(e.child_id for e in keep0),
                    frozenset(e.child_id for e in new0)}
        pinned_key = es[0].key
        keep1, new1 = splitter(es, 4, pinned_key)
        pinned = {frozenset(e.child_id for e in keep1),
                  frozenset(e.child_id for e in new1)}
        assert unpinned == pinned


class TestProperties:
    @settings(max_examples=100)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=40),
        st.sampled_from(["quadratic", "linear", "rstar"]),
    )
    def test_random_inputs_conserve_entries(self, seed, n, name):
        splitter = SPLITTERS[name]
        es = random_entries(random.Random(seed), n)
        min_fill = max(1, n // 4)
        keep, new = splitter(es, min_fill, None)
        assert len(keep) + len(new) == n
        assert len(keep) >= min_fill and len(new) >= min_fill

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_degenerate_identical_boxes_split_evenly_enough(self, seed):
        box = Box.from_bounds((0.0, 0.0), (1.0, 1.0))
        es = [InternalEntry(box, i) for i in range(10)]
        keep, new = quadratic_split(es, 4, None)
        assert len(keep) >= 4 and len(new) >= 4
