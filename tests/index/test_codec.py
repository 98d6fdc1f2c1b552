"""Tests for the binary page codecs (4 KB layout proof)."""

import math
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.codec import (
    CHECKSUM_FRAME_BYTES,
    ChecksummedCodec,
    DualTimeNodeCodec,
    NativeNodeCodec,
)
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.nsi import NativeSpaceIndex
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.errors import CorruptPageError, ReproError, StorageError
from repro.index.pagearrays import page_arrays
from repro.storage.constants import PAGE_SIZE, internal_fanout, leaf_fanout
from repro.storage.faults import FaultInjector
from repro.storage.disk import DiskManager

from _helpers import make_segment, reference_decode


class TestNativeCodec:
    def test_leaf_round_trip(self):
        codec = NativeNodeCodec(2)
        node = Node(7, 0, timestamp=42)
        for i in range(5):
            rec = make_segment(i, i, float(i), i + 1.5, (i * 2.0, 3.0), (0.5, -0.5))
            node.entries.append(LeafEntry(rec.bounding_box(), rec))
        out = codec.decode(codec.encode(node))
        assert out.page_id == 7
        assert out.level == 0
        assert out.timestamp == 42
        assert len(out.entries) == 5
        for orig, dec in zip(node.entries, out.entries):
            assert dec.record.key == orig.record.key
            assert dec.record.segment.origin == pytest.approx(
                orig.record.segment.origin, abs=1e-3
            )

    def test_internal_round_trip(self):
        codec = NativeNodeCodec(2)
        node = Node(3, 2, timestamp=9)
        for i in range(4):
            node.entries.append(
                InternalEntry(
                    Box.from_bounds((i, i, i), (i + 1, i + 2, i + 3)), 100 + i
                )
            )
        out = codec.decode(codec.encode(node))
        assert out.level == 2
        assert [e.child_id for e in out.entries] == [100, 101, 102, 103]
        for orig, dec in zip(node.entries, out.entries):
            assert dec.box.lows == pytest.approx(orig.box.lows, abs=1e-3)

    def test_full_leaf_fits_page(self):
        codec = NativeNodeCodec(2)
        node = Node(0, 0)
        for i in range(127):  # the paper's leaf fanout
            rec = make_segment(i, 0, 0.0, 1.0, (float(i), 0.0))
            node.entries.append(LeafEntry(rec.bounding_box(), rec))
        assert len(codec.encode(node)) <= PAGE_SIZE

    def test_full_internal_fits_page(self):
        codec = NativeNodeCodec(2)
        node = Node(0, 1)
        for i in range(145):  # the paper's internal fanout
            node.entries.append(
                InternalEntry(Box.from_bounds((0, 0, 0), (1, 1, 1)), i)
            )
        assert len(codec.encode(node)) <= PAGE_SIZE

    def test_decoded_leaf_box_covers_true_box(self):
        """Float32 rounding must never shrink an indexed box."""
        codec = NativeNodeCodec(2)
        node = Node(0, 0)
        rec = make_segment(0, 0, 0.1234567, 1.7654321, (10.123456, 20.654321), (0.3333333, -0.777777))
        node.entries.append(LeafEntry(rec.bounding_box(), rec))
        out = codec.decode(codec.encode(node))
        decoded_box = out.entries[0].box
        # The decoded record's true box must sit inside the decoded
        # (padded) index box.
        assert decoded_box.contains_box(out.entries[0].record.bounding_box())

    def test_infinite_bounds_clipped(self):
        codec = NativeNodeCodec(2)
        node = Node(0, 1)
        node.entries.append(
            InternalEntry(
                Box([Interval(float("-inf"), float("inf"))] * 3), 1
            )
        )
        out = codec.decode(codec.encode(node))
        assert out.entries[0].box.extent(0).high > 1e37


class TestDualCodec:
    def test_leaf_round_trip(self):
        codec = DualTimeNodeCodec(2)
        node = Node(1, 0, timestamp=5)
        rec = make_segment(3, 1, 2.0, 3.0, (4.0, 5.0), (1.0, 0.0))
        dual_box = Box(
            [Interval.point(2.0), Interval.point(3.0), Interval(4.0, 5.0), Interval(5.0, 5.0)]
        )
        node.entries.append(LeafEntry(dual_box, rec))
        out = codec.decode(codec.encode(node))
        assert out.entries[0].record.key == (3, 1)
        # Dual box reconstructed around (ts, te) with padding.
        b = out.entries[0].box
        assert b.extent(0).contains(2.0)
        assert b.extent(1).contains(3.0)

    def test_entry_timestamp_falls_back_to_node(self):
        codec = DualTimeNodeCodec(2)
        node = Node(1, 0, timestamp=77)
        rec = make_segment(0, 0)
        node.entries.append(
            LeafEntry(codec._leaf_box(rec), rec, timestamp=3)
        )
        out = codec.decode(codec.encode(node))
        # Per-entry stamps are not on-page; the conservative node stamp
        # is used instead.
        assert out.entries[0].timestamp == 77


class TestBinaryModeIndex:
    def test_native_index_on_binary_disk(self, tiny_segments, rng):
        disk = DiskManager(codec=NativeNodeCodec(2))
        nsi = NativeSpaceIndex(dims=2, disk=disk)
        for s in tiny_segments[:400]:
            nsi.insert(s)
        assert len(nsi) == 400
        got = nsi.snapshot_search(
            Interval(2.0, 3.0), Box.from_bounds((0, 0), (100, 100))
        )
        # Compare against an object-mode twin.
        twin = NativeSpaceIndex(dims=2)
        for s in tiny_segments[:400]:
            twin.insert(s)
        expected = twin.snapshot_search(
            Interval(2.0, 3.0), Box.from_bounds((0, 0), (100, 100))
        )
        assert {r.key for r, _ in got} == {r.key for r, _ in expected}


class TestChecksummedCodec:
    def _node(self):
        node = Node(4, 0, timestamp=11)
        for i in range(6):
            rec = make_segment(i, 0, float(i), i + 1.0, (i * 5.0, 2.0))
            node.entries.append(LeafEntry(rec.bounding_box(), rec))
        return node

    def test_round_trip_through_frame(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        node = self._node()
        data = codec.encode(node)
        assert data[:2] == b"RP"
        out = codec.decode(data)
        assert out.page_id == 4
        assert len(out.entries) == 6

    def test_frame_overhead_is_eight_bytes(self):
        inner = NativeNodeCodec(2)
        codec = ChecksummedCodec(inner)
        node = self._node()
        assert (
            len(codec.encode(node))
            == len(inner.encode(node)) + CHECKSUM_FRAME_BYTES
        )
        assert CHECKSUM_FRAME_BYTES == 8

    def test_full_fanout_node_still_fits_a_page(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        node = Node(0, 0)
        for i in range(leaf_fanout(2)):
            rec = make_segment(i, 0, 0.0, 1.0, (1.0, 1.0))
            node.entries.append(LeafEntry(rec.bounding_box(), rec))
        assert len(codec.encode(node)) <= PAGE_SIZE

    def test_single_bit_flip_detected(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        data = bytearray(codec.encode(self._node()))
        data[20] ^= 0x01
        with pytest.raises(CorruptPageError):
            codec.decode(bytes(data))

    def test_truncation_detected(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        data = codec.encode(self._node())
        with pytest.raises(CorruptPageError):
            codec.decode(data[: len(data) // 2])

    def test_too_short_for_frame_detected(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        with pytest.raises(CorruptPageError):
            codec.decode(b"RP")

    def test_bad_magic_detected(self):
        codec = ChecksummedCodec(NativeNodeCodec(2))
        data = codec.encode(self._node())
        with pytest.raises(CorruptPageError):
            codec.decode(b"XX" + data[2:])

    def test_plain_codec_misses_header_tamper_checksummed_does_not(self):
        # The raison d'etre: without the frame, flipping a byte in an
        # entry-count-preserving spot decodes into a *wrong* node with
        # no error at all.
        inner = NativeNodeCodec(2)
        framed = ChecksummedCodec(inner)
        plain = bytearray(inner.encode(self._node()))
        plain[16] ^= 0xFF  # first byte of the first leaf entry
        decoded = inner.decode(bytes(plain))  # silently wrong
        assert len(decoded.entries) == 6
        tampered = bytearray(framed.encode(self._node()))
        tampered[CHECKSUM_FRAME_BYTES + 16] ^= 0xFF
        with pytest.raises(CorruptPageError):
            framed.decode(bytes(tampered))

    def test_torn_write_detected_on_binary_disk(self):
        disk = DiskManager(
            codec=ChecksummedCodec(NativeNodeCodec(2)),
            faults=FaultInjector().script_torn_write(0),
        )
        pid = disk.allocate()
        disk.write(pid, self._node())  # tears silently
        with pytest.raises(CorruptPageError):
            disk.read(pid)
        assert disk.stats.corrupt_detected == 1

    def test_binary_index_works_under_checksummed_framing(self, tiny_segments):
        disk = DiskManager(codec=ChecksummedCodec(NativeNodeCodec(2)))
        nsi = NativeSpaceIndex(dims=2, disk=disk)
        for s in tiny_segments[:200]:
            nsi.insert(s)
        twin = NativeSpaceIndex(dims=2)
        for s in tiny_segments[:200]:
            twin.insert(s)
        window = Box.from_bounds((0, 0), (100, 100))
        got = nsi.snapshot_search(Interval(2.0, 3.0), window)
        expected = twin.snapshot_search(Interval(2.0, 3.0), window)
        assert {r.key for r, _ in got} == {r.key for r, _ in expected}


class TestUnstorableValues:
    """A value the page format cannot hold is refused as a storage error
    before anything is written, not packed as ``inf`` or leaked as a raw
    ``OverflowError``."""

    @pytest.mark.parametrize("codec_cls", [NativeNodeCodec, DualTimeNodeCodec])
    def test_finite_bound_outside_float32_is_refused(self, codec_cls):
        codec = codec_cls(2)
        axes = codec._axes_count()
        box = Box([Interval(0.0, 1.0)] * (axes - 1) + [Interval(0.0, 1e39)])
        disk = DiskManager(codec=codec)
        pid = disk.allocate()
        node = Node(pid, 1, [InternalEntry(box, 9)])
        with pytest.raises(StorageError, match=rf"page {pid}.*1e\+39"):
            disk.write(pid, node)
        assert disk.raw_page(pid) is None
        assert disk.stats.writes == 0
        # the same row on a page-backed node
        fine = Box([Interval(0.0, 1.0)] * axes)
        disk.write(pid, Node(pid, 1, [InternalEntry(fine, 9)]))
        stored = disk.raw_page(pid)
        decoded = disk.read(pid)
        decoded.update_child_box(9, box, clock=1)
        with pytest.raises(StorageError, match=rf"page {pid}.*1e\+39"):
            disk.write(pid, decoded)
        assert disk.raw_page(pid) == stored

    @pytest.mark.parametrize("codec_cls", [NativeNodeCodec, DualTimeNodeCodec])
    def test_finite_leaf_coordinate_outside_float32_is_refused(self, codec_cls):
        codec = codec_cls(2)
        rec = make_segment(1, 0, 0.0, 1.0, (-1e39, 0.0), (0.0, 0.0))
        node = Node(4, 0, [LeafEntry(rec.bounding_box(), rec)])
        with pytest.raises(StorageError, match="page 4"):
            codec.encode(node)

    def test_id_outside_uint32_is_refused(self):
        codec = NativeNodeCodec(2)
        rec = make_segment(2**32, 0)
        node = Node(4, 0, [LeafEntry(rec.bounding_box(), rec)])
        with pytest.raises(StorageError, match="page 4"):
            codec.encode(node)

    def test_negative_uncertainty_is_refused(self):
        with pytest.raises(ReproError):
            NativeNodeCodec(2, uncertainty=-0.5)


# -- a decoded page against the eager decode it replaced ---------------------

_F32_MAX = 3.4028235e38
#: exactly representable in float32, so equal bounds really are equal
_GRID = [-8.0, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 64.0]


def _coord(rng):
    return rng.choice(_GRID) if rng.random() < 0.4 else rng.uniform(-90.0, 90.0)


def _record(rng, oid, dims):
    t_lo = _coord(rng)
    t_hi = t_lo if rng.random() < 0.25 else t_lo + rng.choice([0.5, rng.uniform(0.0, 9.0)])
    velocity = tuple(
        0.0 if rng.random() < 0.3 else rng.choice([-2.0, 0.5, rng.uniform(-4.0, 4.0)])
        for _ in range(dims)
    )
    origin = tuple(_coord(rng) for _ in range(dims))
    return make_segment(oid, rng.randrange(0, 50), t_lo, t_hi, origin, velocity)


def _box(rng, axes):
    extents = []
    for _ in range(axes):
        roll = rng.random()
        if roll < 0.08:
            extents.append(Interval(-math.inf, math.inf))  # stored clipped
        elif roll < 0.16:
            extents.append(Interval(-_F32_MAX, _F32_MAX))
        elif roll < 0.20:
            extents.append(Interval(1.0, -1.0))  # an empty box
        else:
            low = _coord(rng)
            extents.append(Interval(low, low + rng.choice([0.0, 0.5, rng.uniform(0.0, 30.0)])))
    return Box(extents)


def _leaf_entry(codec, rng, oid):
    record = _record(rng, oid, codec.dims)
    # an inserted entry is indexed under a box of the index's making, not
    # the codec's: any box of the right shape will do
    return LeafEntry(codec._leaf_box(record).inflate([rng.choice([0.0, 0.25])] * codec._axes_count()), record)


def _page(codec, rng, leaf, count):
    level = 0 if leaf else rng.randrange(1, 4)
    node = Node(rng.randrange(0, 10_000), level, timestamp=rng.randrange(0, 500))
    for k in range(count):
        if leaf:
            node.entries.append(_leaf_entry(codec, rng, k))
        else:
            node.entries.append(InternalEntry(_box(rng, codec._axes_count()), 100 + k))
    return node


def _bits(box):
    return struct.pack(f"<{2 * box.dims}d", *box.lows, *box.highs)


def _assert_same_state(framed, decoded, reference):
    """The page-backed node and the entry-list node are one node."""
    assert len(decoded.entries) == len(reference.entries) == len(decoded)
    assert list(decoded.entries) == reference.entries
    assert decoded.timestamp == reference.timestamp
    assert [e.timestamp for e in decoded.entries] == [
        e.timestamp for e in reference.entries
    ]
    if reference.entries:
        assert decoded.mbr() == reference.mbr()
        if not reference.mbr().is_empty:
            assert _bits(decoded.mbr()) == _bits(reference.mbr())
    assert framed.encode(decoded) == framed.encode(reference)
    # what the kernels are handed is what the entry list would build
    got, want = page_arrays(decoded), page_arrays(reference)
    assert got.stamps().tolist() == want.stamps().tolist()
    assert [tuple(row) for row in got.ids().tolist()] == [
        e.record.key if reference.is_leaf else (e.child_id,)
        for e in reference.entries
    ]
    if reference.entries:
        assert got.box_batch().records().tolist() == want.box_batch().records().tolist()
        if reference.is_leaf:
            assert (
                got.segment_batch().records().tolist()
                == want.segment_batch().records().tolist()
            )


class TestPageBackedNodeMatchesEagerDecode:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dual=st.booleans(),
        framed=st.booleans(),
        uncertainty=st.sampled_from([0.0, 0.75]),
        leaf=st.booleans(),
        fill=st.sampled_from(["empty", "one", "some", "full"]),
        ops=st.lists(
            st.sampled_from(["add", "update", "remove", "readd"]), max_size=6
        ),
    )
    def test_decode_mutate_encode(self, seed, dual, framed, uncertainty, leaf, fill, ops):
        rng = random.Random(seed)
        inner = (DualTimeNodeCodec if dual else NativeNodeCodec)(2, uncertainty)
        codec = ChecksummedCodec(inner) if framed else inner
        fanout = leaf_fanout(2) if leaf else internal_fanout(inner._axes_count())
        count = {"empty": 0, "one": 1, "some": rng.randrange(2, 12), "full": fanout}[fill]
        page = codec.encode(_page(inner, rng, leaf, count))
        assert len(page) <= PAGE_SIZE

        decoded, reference = codec.decode(page), reference_decode(codec, page)
        assert (decoded.page_id, decoded.level) == (reference.page_id, reference.level)
        _assert_same_state(codec, decoded, reference)
        assert codec.encode(decoded) == page

        clock = reference.timestamp
        next_id = 1000
        for op in ops:
            clock += rng.randrange(0, 3)
            if op in ("add", "readd"):
                next_id += 1
                if leaf:
                    entry = _leaf_entry(inner, rng, next_id)
                    entry = LeafEntry(entry.box, entry.record, timestamp=clock)
                else:
                    entry = InternalEntry(
                        _box(rng, inner._axes_count()), next_id, timestamp=clock
                    )
                for node in (decoded, reference):
                    node.add(entry, clock)
            elif not reference.entries:
                continue
            elif leaf:  # "update" has no leaf form: both remove a record
                key = rng.choice(reference.entries).record.key
                gone = [n.remove_record(key, clock) for n in (decoded, reference)]
                assert gone[0] == gone[1]
            elif op == "update":
                child = rng.choice(reference.entries).child_id
                box = _box(rng, inner._axes_count())
                for node in (decoded, reference):
                    node.update_child_box(child, box, clock)
            else:
                child = rng.choice(reference.entries).child_id
                gone = [n.remove_child(child, clock) for n in (decoded, reference)]
                assert gone[0] == gone[1]
            _assert_same_state(codec, decoded, reference)
