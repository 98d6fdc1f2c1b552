"""Binary page codecs: proof that nodes fit the claimed 4 KB layout.

The fanouts in :mod:`repro.storage.constants` (145/127, matching Sect. 5)
assume a concrete byte layout.  These codecs implement that layout with
:mod:`struct` so the storage tests can round-trip real nodes through
at-most-4096-byte pages.  Benchmarks run in object mode (the paper's
metric is access *counts*), but any index can be built in binary mode by
passing ``DiskManager(codec=...)``.

Layout (little-endian):

* 16-byte header: page id ``I``, level ``H``, entry count ``H``,
  node timestamp ``I``, flags ``I``;
* internal entry: ``2 * axes`` float32 box bounds + ``I`` child id;
* leaf entry: float32 ``t_lo, t_hi``, ``d`` float32 origin, ``d`` float32
  velocity, ``I`` object id, ``I`` sequence number.

Coordinates are float32, as the paper's fanout arithmetic implies; the
decoded box is recomputed from the (rounded) segment and conservatively
*widened* by one ULP-scale epsilon so float32 rounding can never make the
index miss a result.  Decoded leaf-entry timestamps fall back to the node
timestamp — an over-approximation that can only make NPDQ's update check
more conservative (extra work, never missed answers).
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, List

from repro.errors import CorruptPageError, StorageError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
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
        self.dims = dims
        self.uncertainty = uncertainty
        self._axes = self._axes_count()
        self._internal = struct.Struct("<" + "f" * (2 * self._axes) + "I")
        self._leaf = struct.Struct("<" + "f" * (2 + 2 * dims) + "II")

    def _axes_count(self) -> int:
        raise NotImplementedError

    def _leaf_box(self, record: MotionSegment) -> Box:
        raise NotImplementedError

    # -- encoding -----------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        parts: List[bytes] = [
            _HEADER.pack(node.page_id, node.level, len(node.entries), node.timestamp, 0)
        ]
        if node.is_leaf:
            for e in node.entries:
                rec = e.record  # type: ignore[union-attr]
                seg = rec.segment
                parts.append(
                    self._leaf.pack(
                        seg.time.low,
                        seg.time.high,
                        *seg.origin,
                        *seg.velocity,
                        rec.object_id,
                        rec.seq,
                    )
                )
        else:
            for e in node.entries:
                coords: List[float] = []
                for ext in e.box:
                    coords.append(_f32_clip(ext.low))
                    coords.append(_f32_clip(ext.high))
                parts.append(self._internal.pack(*coords, e.child_id))  # type: ignore[union-attr]
        return b"".join(parts)

    # -- decoding -------------------------------------------------------------

    def decode(self, data: bytes) -> Node:
        page_id, level, count, timestamp, _flags = _HEADER.unpack_from(data, 0)
        node = Node(page_id, level, timestamp=timestamp)
        offset = _HEADER.size
        if level == 0:
            for _ in range(count):
                values = self._leaf.unpack_from(data, offset)
                offset += self._leaf.size
                t_lo, t_hi = values[0], values[1]
                origin = tuple(values[2 : 2 + self.dims])
                velocity = tuple(values[2 + self.dims : 2 + 2 * self.dims])
                oid, seq = values[-2], values[-1]
                record = MotionSegment(
                    oid,
                    seq,
                    SpaceTimeSegment(Interval(t_lo, t_hi), origin, velocity),
                )
                node.entries.append(
                    LeafEntry(self._leaf_box(record), record, timestamp=timestamp)
                )
        else:
            for _ in range(count):
                values = self._internal.unpack_from(data, offset)
                offset += self._internal.size
                extents = [
                    Interval(values[2 * a], values[2 * a + 1])
                    for a in range(self._axes)
                ]
                # The page stores one stamp per node.  It is the newest
                # of its entries' stamps, so giving it to every entry
                # only ever disables NPDQ's update suppression (which
                # discards a subtree whose stamp predates the previous
                # query) — a zero here would discard fresh inserts.
                node.entries.append(
                    InternalEntry(Box(extents), values[-1], timestamp=timestamp)
                )
        return node


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
