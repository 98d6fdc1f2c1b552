"""Binary page codecs: the paper's 4 KB page layout, byte for byte.

The fanouts in :mod:`repro.storage.constants` (145/127, matching Sect. 5)
assume a concrete byte layout.  These codecs implement it, and they are
what the durable tier serves through: ``serve --data-dir`` (and any
``DiskManager(codec=...)``) writes every node as one of these pages and
reads every node back from one.  In-memory indexes run in object mode
and never meet a codec.

Layout (little-endian):

* 16-byte header: page id ``I``, level ``H``, entry count ``H``,
  node timestamp ``I``, flags ``I``;
* internal entry: ``2 * axes`` float32 box bounds + ``I`` child id;
* leaf entry: float32 ``t_lo, t_hi``, ``d`` float32 origin, ``d`` float32
  velocity, ``I`` object id, ``I`` sequence number.

A page *is* its columns: ``decode`` unpacks the records once into the
float64 columns the batch kernels read
(:class:`~repro.index.pagearrays.PageRows`) and hands back a page-backed
:class:`~repro.index.node.Node` over them — no entry object is built
until somebody asks for ``entries[k]``.  ``encode`` packs a page-backed
node's columns back to the same bytes; an object-mode node (a bulk-load
or split product that was never on a page) is packed one entry object at
a time, which for a node with no columns yet is the cheaper way and
leaves none behind.

Coordinates are float32, as the paper's fanout arithmetic implies; the
decoded leaf box is recomputed from the (rounded) segment and
conservatively *widened* by one ULP-scale epsilon so float32 rounding can
never make the index miss a result.  Decoded entry timestamps fall back
to the node timestamp — an over-approximation that can only make NPDQ's
update check more conservative (extra work, never missed answers).  A
finite bound outside float32 range cannot be stored and is refused with
:class:`~repro.errors.StorageError`; an infinite internal bound is
stored as the largest finite float32 of its sign.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, Callable, Iterator, List, Tuple

from repro.errors import CorruptPageError, StorageError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.node import Node
from repro.index.pagearrays import PageRows, page_arrays
from repro.motion.segment import MotionSegment
from repro.motion.uncertainty import inflate_box

__all__ = [
    "NativeNodeCodec",
    "DualTimeNodeCodec",
    "ChecksummedCodec",
    "CHECKSUM_FRAME_BYTES",
]

_HEADER = struct.Struct("<IHHII")
_F32_MAX = 3.4028235e38


def _f32_clip(value: float) -> float:
    """Map ±inf onto the float32 range so struct 'f' packing succeeds."""
    if value == math.inf:
        return _F32_MAX
    if value == -math.inf:
        return -_F32_MAX
    return value


def _packed(pack: Callable[..., bytes], values: tuple) -> bytes:
    try:
        return pack(*values)
    except (OverflowError, struct.error):
        # struct names neither the field nor the number: say which record
        raise OverflowError(f"record {values!r} does not fit") from None


class _BaseCodec:
    """Shared encode/decode machinery; subclasses define the leaf box."""

    #: decoded leaf boxes are wider than their stored parent entry by up
    #: to ``_ROUNDING_EPS`` (the decode-side pad) plus float32 rounding;
    #: structural checkers must tolerate that much parent/child overhang
    #: on codec-backed disks — it is conservatism, not corruption.
    _ROUNDING_EPS = 0.0

    @property
    def containment_slack(self) -> float:
        """MBR-containment tolerance a lossy round-trip may introduce."""
        return 2.0 * self._ROUNDING_EPS

    def __init__(self, dims: int, uncertainty: float = 0.0):
        if dims < 1:
            raise StorageError("need at least one spatial dimension")
        if uncertainty < 0:
            raise StorageError("uncertainty radius must be non-negative")
        self.dims = dims
        self.uncertainty = uncertainty
        self._axes = self._axes_count()
        self._internal = kernels.RecordLayout(2 * self._axes, 1)
        self._leaf = kernels.RecordLayout(2 + 2 * dims, 2)

    def _axes_count(self) -> int:
        raise NotImplementedError

    def _leaf_box(self, record: MotionSegment) -> Box:
        """The box a decoded leaf entry is indexed under — the scalar
        definition :meth:`_leaf_box_columns` is the column form of."""
        raise NotImplementedError

    def _leaf_box_columns(self, segments: kernels.SegmentBatch) -> Tuple[List, List]:
        """Per axis, the low and the high column of :meth:`_leaf_box`
        over a whole leaf, before the pad."""
        raise NotImplementedError

    def _spatial_columns(self, segments: kernels.SegmentBatch) -> Tuple[List, List]:
        bounds = [segments.spatial_bounds(i) for i in range(self.dims)]
        return [lo for lo, _ in bounds], [hi for _, hi in bounds]

    # -- encoding -----------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        header = _HEADER.pack(
            node.page_id, node.level, len(node.entries), node.timestamp, 0
        )
        try:
            if node._page_backed:
                return header + self._pack_rows(node.entries)
            return header + b"".join(self._pack_entries(node))
        except (OverflowError, struct.error) as exc:
            raise StorageError(
                f"page {node.page_id}: {exc}; a page holds float32 bounds "
                "and uint32 ids"
            ) from None

    def _pack_rows(self, rows: PageRows) -> bytes:
        """A page-backed node's records: its columns, packed as they are."""
        if rows.is_leaf:
            return self._leaf.pack(
                rows.segment_batch().records(), rows.ids(), clip_inf=False
            )
        return self._internal.pack(
            rows.box_batch().records(), rows.ids(), clip_inf=True
        )

    def _pack_entries(self, node: Node) -> Iterator[bytes]:
        """An object-mode node's records, one entry object at a time."""
        if node.is_leaf:
            pack = self._leaf.struct.pack
            for e in node.entries:
                rec = e.record  # type: ignore[union-attr]
                seg = rec.segment
                values = (
                    seg.time.low, seg.time.high, *seg.origin, *seg.velocity,
                    rec.object_id, rec.seq,
                )
                yield _packed(pack, values)
        else:
            pack = self._internal.struct.pack
            for e in node.entries:
                coords: List[float] = []
                for ext in e.box:
                    coords.append(_f32_clip(ext.low))
                    coords.append(_f32_clip(ext.high))
                yield _packed(pack, (*coords, e.child_id))  # type: ignore[union-attr]

    # -- decoding -------------------------------------------------------------

    def decode(self, data: bytes) -> Node:
        page_id, level, count, timestamp, _flags = _HEADER.unpack_from(data, 0)
        if level == 0:
            records, ids = self._leaf.unpack(data, _HEADER.size, count)
            segments = kernels.SegmentBatch.from_records(records)
            boxes = kernels.BoxBatch.from_columns(
                *self._leaf_box_columns(segments),
                pad=self.uncertainty + self._ROUNDING_EPS,
            )
        else:
            records, ids = self._internal.unpack(data, _HEADER.size, count)
            segments = None
            boxes = kernels.BoxBatch.from_records(records)
        # The page stores one stamp per node.  It is the newest of its
        # entries' stamps, so giving it to every row only ever disables
        # NPDQ's update suppression (which discards a subtree whose
        # stamp predates the previous query) — a zero here would
        # discard fresh inserts.
        stamps = kernels.stamp_column([timestamp] * count)
        return Node.from_rows(
            page_id, level, timestamp, PageRows(boxes, stamps, ids, segments)
        )


_CHECKSUM_FRAME = struct.Struct("<2sHI")
_CHECKSUM_MAGIC = b"RP"

CHECKSUM_FRAME_BYTES = _CHECKSUM_FRAME.size
"""Per-page overhead of the checksummed framing (8 bytes)."""


class ChecksummedCodec:
    """Wrap any page codec with a CRC32-checksummed frame.

    Layout: 2-byte magic ``RP``, ``H`` payload length, ``I`` CRC32 of
    the payload, then the inner codec's bytes.  Decoding verifies magic,
    length and checksum and raises
    :class:`~repro.errors.CorruptPageError` on any mismatch — so torn
    writes and bit rot are *detected* instead of silently producing a
    garbage node.  The 8-byte frame fits alongside full-fanout nodes in
    a 4 KB page (the paper's layout leaves >= 16 bytes of slack).
    """

    def __init__(self, inner: Any):
        self.inner = inner

    @property
    def containment_slack(self) -> float:
        """Forward the inner codec's MBR-containment tolerance."""
        return getattr(self.inner, "containment_slack", 0.0)

    def encode(self, payload: Any) -> bytes:
        data = self.inner.encode(payload)
        if len(data) > 0xFFFF:
            raise StorageError(
                f"payload of {len(data)} B exceeds the checksum frame's "
                "16-bit length field"
            )
        frame = _CHECKSUM_FRAME.pack(
            _CHECKSUM_MAGIC, len(data), zlib.crc32(data) & 0xFFFFFFFF
        )
        return frame + data

    def decode(self, data: bytes) -> Any:
        if len(data) < _CHECKSUM_FRAME.size:
            raise CorruptPageError(
                f"page is {len(data)} B, shorter than the checksum frame"
            )
        magic, length, crc = _CHECKSUM_FRAME.unpack_from(data, 0)
        if magic != _CHECKSUM_MAGIC:
            raise CorruptPageError(f"bad page magic {magic!r}")
        payload = data[_CHECKSUM_FRAME.size : _CHECKSUM_FRAME.size + length]
        if len(payload) != length:
            raise CorruptPageError(
                f"page truncated: header claims {length} B, "
                f"{len(payload)} B present"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptPageError("page checksum mismatch")
        return self.inner.decode(payload)


class NativeNodeCodec(_BaseCodec):
    """Codec for :class:`~repro.index.NativeSpaceIndex` nodes
    (axes ``<t, x_1, .., x_d>``)."""

    # Widening applied to decoded leaf boxes: float32 round-trip can move a
    # coordinate by at most one part in 2^-23 of its magnitude; a fixed
    # epsilon scaled generously covers the paper's 100x100x100 domain.
    _ROUNDING_EPS = 1e-3

    def _axes_count(self) -> int:
        return self.dims + 1

    def _leaf_box(self, record: MotionSegment) -> Box:
        box = record.bounding_box()
        pad = self.uncertainty + self._ROUNDING_EPS
        return inflate_box(box, pad, spatial_dims_from=0)

    def _leaf_box_columns(self, segments):
        lows, highs = self._spatial_columns(segments)
        return [segments.t_lo] + lows, [segments.t_hi] + highs


class DualTimeNodeCodec(_BaseCodec):
    """Codec for :class:`~repro.index.DualTimeIndex` nodes
    (axes ``<t_s, t_e, x_1, .., x_d>``)."""

    _ROUNDING_EPS = 1e-3

    def _axes_count(self) -> int:
        return self.dims + 2

    def _leaf_box(self, record: MotionSegment) -> Box:
        t = record.time
        box = Box(
            [Interval.point(t.low), Interval.point(t.high)]
            + [record.segment.spatial_extent(i) for i in range(self.dims)]
        )
        pad = self.uncertainty + self._ROUNDING_EPS
        return inflate_box(box, pad, spatial_dims_from=0)

    def _leaf_box_columns(self, segments):
        lows, highs = self._spatial_columns(segments)
        times = [segments.t_lo, segments.t_hi]
        return times + lows, times + highs
