"""Vectorized batch kernels over the scalar geometry reference.

Every hot query path evaluates the same small algebra — half-line
solutions of ``m·t + c >= 0``, interval intersection, box overlap — once
per *entry* of an R-tree node page.  This module evaluates it once per
*page*: each kernel takes a struct-of-arrays batch (one float64 array
per field, one row per entry) and returns the per-entry results in one
numpy pass.

The scalar implementations in :mod:`repro.geometry.trapezoid`,
:mod:`repro.geometry.segment` and :mod:`repro.geometry.box` remain the
reference semantics.  The kernels are written to be **bit-identical** to
them, not merely close:

* numpy float64 ``+ - * /`` are the same IEEE-754 double operations the
  Python scalars use, so replicating the reference's exact expression
  structure (same operands, same left-to-right order) replicates its
  exact results.
* every scalar branch ``a if a >= b else b`` becomes
  ``np.where(a >= b, a, b)`` — never ``np.maximum``, whose NaN and
  signed-zero choices differ from the branch.
* the scalar code normalises an empty intermediate (``low > high``) to
  ``EMPTY_INTERVAL`` and early-returns.  The kernels instead carry the
  raw crossed bounds through the remaining constraints — interval
  intersection only ever raises lows and lowers highs, so an empty row
  stays empty — and normalise once when materialising the final
  :class:`~repro.geometry.interval.Interval`.  Rows the scalar code
  empties *structurally* (an empty box extent, a failed rest-dimension
  containment test) are tracked in an explicit mask instead.

The same columns are what a node page *is* on the durable tier:
:class:`RecordLayout` moves a page's fixed-width records between bytes
and columns (the page codecs in :mod:`repro.index.codec` own what the
fields mean), the batches take, hand back and mutate rows, and
:func:`choose_subtree` is the insert path's ChooseLeaf over them.

numpy is imported here and nowhere else in ``repro`` (lint rule DQL07):
this module owns the array representation, and everything above it
passes batches around as opaque objects.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DimensionalityError, GeometryError, QueryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval

__all__ = [
    "available",
    "SegmentBatch",
    "route_rows",
    "pack_table",
    "unpack_table",
    "BoxBatch",
    "RecordLayout",
    "key_column",
    "id_column",
    "row_order",
    "append_row",
    "delete_row",
    "columns_digest",
    "choose_subtree",
    "WindowParams",
    "window_params",
    "moving_window_box_overlap_batch",
    "moving_window_segment_overlap_batch",
    "TrajectoryTable",
    "StackedTables",
    "frame_windows",
    "window_centres",
    "frame_motion",
    "trajectory_live_components",
    "gathered_live_components",
    "segment_box_overlap_batch",
    "stamp_column",
    "DiscardRule",
    "QueryBlock",
    "level_live_rows",
    "live_rows",
    "box_query_masks",
]


def available() -> bool:
    """Always True: numpy is a declared dependency.

    Kept because ``bench/layers.py`` gates its kernel micro-timings on it.
    """
    return True


# ---------------------------------------------------------------------------
# Struct-of-arrays batches
# ---------------------------------------------------------------------------


class SegmentBatch:
    """Float64 columns of ``n`` motion segments.

    The fields are the rows of one array — ``t_lo``, ``t_hi``, then
    ``dims`` origin rows, then ``dims`` velocity rows — so a cached page
    costs one allocation and every field a kernel reads is contiguous.
    """

    __slots__ = ("n", "dims", "_rows")

    def __init__(
        self,
        t_lo: Sequence[float],
        t_hi: Sequence[float],
        origins: Sequence[Sequence[float]],
        velocities: Sequence[Sequence[float]],
    ):
        self.n = n = len(t_lo)
        self.dims = dims = len(origins[0]) if n else 0
        self._rows = rows = np.empty((2 + 2 * dims, n), dtype=np.float64)
        rows[0] = t_lo
        rows[1] = t_hi
        shape = (n, dims)
        origin = np.asarray(origins, dtype=np.float64).reshape(shape)
        velocity = np.asarray(velocities, dtype=np.float64).reshape(shape)
        rows[2 : 2 + dims] = origin.T
        rows[2 + dims :] = velocity.T

    @property
    def t_lo(self):
        """Validity-interval lows, one per segment."""
        return self._rows[0]

    @property
    def t_hi(self):
        """Validity-interval highs, one per segment."""
        return self._rows[1]

    def origin(self, i: int):
        """Coordinate ``i`` of every segment's position at ``t_lo``."""
        return self._rows[2 + i]

    def velocity(self, i: int):
        """Coordinate ``i`` of every segment's velocity."""
        return self._rows[2 + self.dims + i]

    def time_bounds(self) -> Tuple[List[float], List[float]]:
        """Per-segment validity bounds as plain floats."""
        return self.t_lo.tolist(), self.t_hi.tolist()

    def start_range_and_median_life(self) -> Tuple[float, float, float]:
        """The least and the greatest ``t_lo`` and the validity length
        at sorted position ``n // 2``, as plain floats."""
        life = np.sort(self.t_hi - self.t_lo)
        return self.t_lo.min().item(), self.t_lo.max().item(), life[self.n // 2].item()

    @classmethod
    def of(cls, segments: Sequence) -> "SegmentBatch":
        """The batch of ``segments`` (``SpaceTimeSegment``), one row each,
        filled field by field; mixed dimensionalities are refused."""
        n, dims = len(segments), {len(s.origin) for s in segments}
        if len(dims) > 1:
            raise DimensionalityError(f"segments mix dimensionalities {sorted(dims)}")
        batch = cls.__new__(cls)
        batch.n, batch.dims = n, dims.pop() if dims else 0
        batch._rows = rows = np.empty((2 + 2 * batch.dims, n), dtype=np.float64)
        rows[0] = np.fromiter((s.time.low for s in segments), np.float64, n)
        rows[1] = np.fromiter((s.time.high for s in segments), np.float64, n)
        for i in range(batch.dims):
            rows[2 + i] = np.fromiter((s.origin[i] for s in segments), np.float64, n)
            rows[2 + batch.dims + i] = np.fromiter(
                (s.velocity[i] for s in segments), np.float64, n
            )
        return batch

    @classmethod
    def gather(cls, pieces: Sequence[Tuple["SegmentBatch", Sequence[int]]]):
        """The rows of several batches, ``[(batch, rows), …]``, as one
        batch in that order.

        The kernels are elementwise, so a row evaluates to the same
        floats in the gathered batch as in its own page.
        """
        batch = cls.__new__(cls)
        batch._rows = np.concatenate([b._rows[:, r] for b, r in pieces], axis=1)
        batch.n, batch.dims = batch._rows.shape[1], pieces[0][0].dims
        return batch

    @classmethod
    def from_records(cls, records) -> "SegmentBatch":
        """The batch of a leaf page's unpacked records.

        ``records`` is the ``(n, 2 + 2·dims)`` float array of
        :meth:`RecordLayout.unpack` — ``t_lo, t_hi``, origin, velocity
        per row, the field order of this batch.  A crossed validity
        interval is refused, as ``SpaceTimeSegment`` refuses it.
        """
        batch = cls.__new__(cls)
        batch.n = records.shape[0]
        batch.dims = (records.shape[1] - 2) // 2
        batch._rows = np.ascontiguousarray(records.T)
        if (batch._rows[0] > batch._rows[1]).any():
            raise GeometryError("segment validity interval is empty")
        return batch

    def records(self):
        """The ``(n, 2 + 2·dims)`` record rows :meth:`from_records` took."""
        return self._rows.T

    def values(self, rows: Sequence[int]) -> List[List[float]]:
        """``[t_lo, t_hi, *origin, *velocity]`` of each of ``rows``, as
        plain floats."""
        return self._rows[:, rows].T.tolist()

    def rows_valid_at(self, t: float) -> List[int]:
        """Rows whose validity interval contains ``t`` (closed bounds)."""
        return ((self._rows[0] <= t) & (t <= self._rows[1])).nonzero()[0].tolist()

    def spatial_bounds(self, i: int):
        """Per-segment extent along spatial dimension ``i``: the columns
        of ``SpaceTimeSegment.spatial_extent(i)``, same floats."""
        a = self.origin(i)
        # position_at(t_hi): origin + velocity * (t_hi - t_lo)
        b = a + self.velocity(i) * (self.t_hi - self.t_lo)
        return np.where(a <= b, a, b), np.where(a <= b, b, a)

    def box_bounds(self) -> Tuple[List, List]:
        """Per axis (time, then space) the low and the high column of the
        segments' bounding boxes (``SpaceTimeSegment.bounding_box``)."""
        bounds = [self.spatial_bounds(i) for i in range(self.dims)]
        return [self.t_lo] + [b[0] for b in bounds], [self.t_hi] + [b[1] for b in bounds]

    def append(
        self,
        t_lo: float,
        t_hi: float,
        origin: Sequence[float],
        velocity: Sequence[float],
    ) -> None:
        """Add one segment as the last row (a batch with no rows takes
        the segment's dimensionality)."""
        row = np.asarray([t_lo, t_hi, *origin, *velocity], dtype=np.float64)
        rows = self._rows.reshape(len(row), self.n)
        self._rows = np.concatenate((rows, row[:, None]), axis=1)
        self.n, self.dims = self.n + 1, len(origin)

    def delete(self, row: int) -> None:
        """Drop one row; later rows move up."""
        self._rows = np.delete(self._rows, row, axis=1)
        self.n -= 1


def route_rows(segments: SegmentBatch, pad: float, cell_lows, cell_highs) -> List[List[int]]:
    """Per closed cell, the rows whose spatial extent (grown by ``pad``
    when ``pad > 0``, as ``Box.inflate`` grows it) overlaps the cell by
    ``Box.overlaps``'s closed rule, in row order; a row that overlaps no
    cell is in every cell's list."""
    lows, highs = np.asarray(cell_lows), np.asarray(cell_highs)
    if segments.n and segments.dims != lows.shape[1]:
        raise DimensionalityError(f"{segments.dims}-d segments, {lows.shape[1]}-d cells")
    hit = np.ones((len(lows), segments.n), dtype=bool)
    for i in range(segments.dims):
        low, high = segments.spatial_bounds(i)
        if pad > 0:
            low, high = low - pad, high + pad
        hit &= (lows[:, i, None] <= high) & (low <= highs[:, i, None])
    hit |= ~hit.any(axis=0)
    return [cell.nonzero()[0].tolist() for cell in hit]


def pack_table(ids, segments: SegmentBatch) -> bytes:
    """Little-endian bytes of a segment table: each of the ``(n, width)``
    ``ids``' columns, then per segment ``t_lo, t_hi``, origin, velocity."""
    return ids.T.astype("<i8").tobytes() + segments.records().astype("<f8").tobytes()


def unpack_table(data: bytes, offset: int, n: int, width: int, dims: int):
    """:func:`pack_table`'s ``(ids, segments)`` from ``data[offset:]``."""
    ids = np.frombuffer(data, "<i8", width * n, offset).reshape(width, n)
    rows = np.frombuffer(data, "<f8", n * (2 + 2 * dims), offset + 8 * width * n)
    ids = np.ascontiguousarray(ids.T, dtype=np.int64)
    return ids, SegmentBatch.from_records(rows.reshape(n, 2 + 2 * dims))


class BoxBatch:
    """Float64 columns of ``n`` axis-aligned boxes (``axes`` extents)."""

    __slots__ = ("n", "axes", "_lows", "_highs")

    def __init__(
        self,
        lows: Sequence[Sequence[float]],
        highs: Sequence[Sequence[float]],
    ):
        self.n = len(lows)
        self.axes = len(lows[0]) if self.n else 0
        shape = (self.n, self.axes)
        self._lows = np.asarray(lows, dtype=np.float64).reshape(shape)
        self._highs = np.asarray(highs, dtype=np.float64).reshape(shape)

    def extent_bounds(self, axis: int) -> Tuple[List[float], List[float]]:
        """Per-box bounds along one axis as plain floats."""
        if self.n == 0:  # an empty page has no axes to index
            return [], []
        return self._lows[:, axis].tolist(), self._highs[:, axis].tolist()

    @classmethod
    def _of(cls, lows, highs) -> "BoxBatch":
        batch = cls.__new__(cls)
        batch._lows, batch._highs = lows, highs
        batch.n = lows.shape[0]
        batch.axes = lows.shape[1] if batch.n else 0
        return batch

    @classmethod
    def from_columns(
        cls, lows: Sequence, highs: Sequence, pad: Union[None, float, Sequence[float]] = None
    ) -> "BoxBatch":
        """Boxes given one low and one high column per axis, grown by
        ``pad`` — one amount for every axis, or one per axis — on both
        sides (``Box.inflate``; ``None`` leaves the bounds as given)."""
        lows, highs = np.stack(lows, axis=1), np.stack(highs, axis=1)
        if pad is None:
            return cls._of(lows, highs)
        pad = np.asarray(pad, dtype=np.float64)
        return cls._of(lows - pad, highs + pad)

    @classmethod
    def from_records(cls, records) -> "BoxBatch":
        """The batch of an internal page's unpacked records: ``(n, 2·axes)``
        floats, ``low, high`` per axis."""
        return cls._of(
            np.ascontiguousarray(records[:, 0::2]),
            np.ascontiguousarray(records[:, 1::2]),
        )

    @property
    def width(self) -> int:
        """Axes of the stored rows — also of a page-built batch with no
        rows, where :attr:`axes` reads 0."""
        return self._lows.shape[1]

    def records(self):
        """The ``(n, 2·axes)`` record rows :meth:`from_records` took."""
        return np.stack((self._lows, self._highs), axis=2).reshape(
            self.n, 2 * self.width
        )

    def take(self, rows: Sequence[int]) -> "BoxBatch":
        """A new batch of ``rows``, in that order."""
        return self._of(self._lows[rows], self._highs[rows])

    def centres(self, axis: int):
        """Per-box centre ``0.5 * (low + high)`` along ``axis``."""
        return 0.5 * (self._lows[:, axis] + self._highs[:, axis])

    def bounds(self, rows: Sequence[int]) -> Tuple[List[List[float]], List[List[float]]]:
        """Low and high corners of each of ``rows``, as plain floats."""
        return self._lows[rows].tolist(), self._highs[rows].tolist()

    def rows_containing(self, axis: int, value: float) -> List[int]:
        """Rows whose extent along ``axis`` contains ``value`` (closed)."""
        if self.n == 0:
            return []
        inside = (self._lows[:, axis] <= value) & (value <= self._highs[:, axis])
        return inside.nonzero()[0].tolist()

    def cover(self) -> Tuple[List[float], List[float]]:
        """Corners of the minimum bounding box, by ``Node.mbr``'s rule.

        Empty boxes are skipped; when every box is empty the last one's
        own bounds come back.  ``argmin``/``argmax`` keep the first of
        equal bounds, as Python's ``min``/``max`` do (a ``-0.0`` after a
        ``0.0`` does not replace it).
        """
        lows, highs = self._lows, self._highs
        full = ~(lows > highs).any(axis=1)
        if not full.any():
            return lows[-1].tolist(), highs[-1].tolist()
        if not full.all():
            lows, highs = lows[full], highs[full]
        axes = np.arange(lows.shape[1])
        return (
            lows[lows.argmin(axis=0), axes].tolist(),
            highs[highs.argmax(axis=0), axes].tolist(),
        )

    def append(self, lows: Sequence[float], highs: Sequence[float]) -> None:
        """Add one box as the last row (a batch with no rows takes the
        box's axes)."""
        self._lows = append_row(self._lows.reshape(self.n, len(lows)), lows)
        self._highs = append_row(self._highs.reshape(self.n, len(highs)), highs)
        self.n += 1
        self.axes = self._lows.shape[1]

    def set_row(self, row: int, lows: Sequence[float], highs: Sequence[float]) -> None:
        """Overwrite one box in place."""
        self._lows[row] = lows
        self._highs[row] = highs

    def delete(self, row: int) -> None:
        """Drop one row; later rows move up."""
        self._lows = delete_row(self._lows, row)
        self._highs = delete_row(self._highs, row)
        self.n -= 1
        if self.n == 0:
            self.axes = 0


# ---------------------------------------------------------------------------
# Packed page records and the plain columns beside the batches
# ---------------------------------------------------------------------------


class RecordLayout:
    """Fixed-width page records: ``floats`` float32 then ``ints`` uint32,
    little-endian, back to back — ``struct`` format ``<f…fI…I``.

    The page codecs own what the fields mean; this only moves a run of
    such records between bytes and a pair of columns.
    """

    __slots__ = ("_dtype",)

    def __init__(self, floats: int, ints: int):
        self._dtype = np.dtype(
            [("f", "<f4", (floats,)), ("i", "<u4", (ints,))]
        )

    def unpack(self, data: bytes, offset: int, count: int):
        """``count`` records at ``offset`` as ``(float64 (count, floats),
        int64 (count, ints))``; raises ``ValueError`` on short data."""
        records = np.frombuffer(data, self._dtype, count, offset)
        return records["f"].astype(np.float64), records["i"].astype(np.int64)

    def pack(self, floats, ints, clip_inf: bool) -> bytes:
        """The bytes of one record per row of the two columns.

        Floats round to float32 as ``struct`` ``'f'`` rounds them, and
        like it a finite value outside float32 range is refused
        (``OverflowError`` carrying the value) rather than stored as
        ``inf``; so is an id outside uint32.  With ``clip_inf`` an
        infinite value is stored as the largest finite float32 of its
        sign.
        """
        if floats.shape[0] == 0:
            return b""
        records = np.empty(floats.shape[0], dtype=self._dtype)
        with np.errstate(over="ignore"):
            narrow = floats.astype(np.float32)
        infinite = np.isinf(narrow)
        lost = infinite & ~np.isinf(floats)
        if lost.any():
            raise OverflowError(float(floats[lost][0]))
        if clip_inf and infinite.any():
            limit = np.finfo(np.float32).max
            narrow = np.where(infinite, np.copysign(limit, narrow), narrow)
        wide = (ints < 0) | (ints > 0xFFFFFFFF)
        if wide.any():
            raise OverflowError(int(ints[wide][0]))
        records["f"] = narrow
        records["i"] = ints
        return records.tobytes()


def key_column(records: Sequence):
    """The records' ``(object_id, seq)`` as an int64 ``(n, 2)`` column."""
    ids = np.empty((len(records), 2), dtype=np.int64)
    ids[:, 0] = np.fromiter((r.object_id for r in records), np.int64, len(records))
    ids[:, 1] = np.fromiter((r.seq for r in records), np.int64, len(records))
    return ids


def id_column(keys: Sequence[Sequence[int]], width: int):
    """Per-row ids (``width`` ints each) as an int64 ``(n, width)`` column."""
    return np.asarray(keys, dtype=np.int64).reshape(len(keys), width)


def row_order(rows: Sequence[int], keys: Sequence[float]):
    """``rows`` sorted by ``keys[row]``, equal keys keeping their order —
    Python's stable ``sorted`` on the same floats — as an int column."""
    rows = np.asarray(rows)
    return rows[np.argsort(np.asarray(keys)[rows], kind="stable")]


def append_row(column, row):
    """``column`` with ``row`` added last (a new array)."""
    return np.concatenate((column, np.asarray([row], dtype=column.dtype)))


def delete_row(column, row: int):
    """``column`` without row ``row`` (a new array)."""
    return np.delete(column, row, axis=0)


def columns_digest(*columns) -> int:
    """A hash of the columns' contents (``None`` columns skipped)."""
    return hash(tuple(c.tobytes() for c in columns if c is not None))


def _volume(lows, highs):
    """Row-wise ``Box.volume`` of non-empty boxes: the product of the
    extent lengths ``max(0.0, high - low)``, multiplied in axis order."""
    d = highs - lows
    lengths = np.where(d > 0.0, d, 0.0)
    volume = lengths[:, 0]
    for axis in range(1, lengths.shape[1]):
        volume = volume * lengths[:, axis]
    return volume


def frame_motion(centres, lasts, halves, dts, velocities, tolerances):
    """Per frame of a block, the scalar session's floats: row ``r`` is at
    ``centres[r]``, ``dts[r]`` after ``lasts[r]``, with half-extents
    ``halves[r]``, last velocity ``velocities[r]`` (NaNs for none) and
    velocity tolerance ``tolerances[r]``.  Returns per row the volume of
    ``Box.intersect`` of the windows ``p ± h`` and ``c ± h`` over the
    latter's (0.0 for a window of no volume), the velocity ``(c − p) /
    dt`` and whether it is within the tolerance of the last on every axis.
    """
    c, p, h = (np.asarray(x, dtype=np.float64) for x in (centres, lasts, halves))
    lows, highs, p_lows, p_highs = c - h, c + h, p - h, p + h
    with np.errstate(invalid="ignore", over="ignore"):
        # Interval.intersect: the previous window's bound wins a tie
        i_lows = np.where(p_lows >= lows, p_lows, lows)
        i_highs = np.where(p_highs <= highs, p_highs, highs)
        inter, area = (
            np.where((lo > hi).any(axis=1), 0.0, _volume(lo, hi))
            for lo, hi in ((i_lows, i_highs), (lows, highs))
        )
        overlap = np.divide(inter, area, out=np.zeros(len(area)), where=area != 0.0)
        velocity = (c - p) / np.asarray(dts, dtype=np.float64)[:, None]
        held = np.abs(velocity - np.asarray(velocities, dtype=np.float64)) <= np.asarray(
            tolerances, dtype=np.float64
        )[:, None]
    return overlap.tolist(), velocity.tolist(), held.all(axis=1).tolist()


def choose_subtree(
    boxes: BoxBatch, lows: Sequence[float], highs: Sequence[float]
) -> int:
    """Guttman's ChooseLeaf over one page: the row needing the least
    enlargement to cover the box ``[lows, highs]``, then the one of
    least volume, then the first.

    Exactly the fold of ``(e.box.enlargement(box), e.box.volume())``
    under ``<`` over the page's entries — same floats, so the same row,
    including ``Box.cover``'s rules for an empty entry box (the cover is
    ``box``) and an empty ``box`` (the cover is the entry box).
    """
    if boxes.n == 0:
        raise GeometryError("no entries to choose from")
    q_lo = np.asarray(lows, dtype=np.float64)
    q_hi = np.asarray(highs, dtype=np.float64)
    if q_lo.shape[0] != boxes.axes:
        raise GeometryError(
            f"box has {q_lo.shape[0]} axes, entries {boxes.axes}"
        )
    e_lo, e_hi = boxes._lows, boxes._highs
    with np.errstate(invalid="ignore", over="ignore"):
        empty = (e_lo > e_hi).any(axis=1)
        volume = np.where(empty, 0.0, _volume(e_lo, e_hi))
        if (q_lo > q_hi).any():
            covered = volume
        else:
            # Interval.cover: min(self.low, other.low), max(self.high, other.high)
            c_lo = np.where(q_lo < e_lo, q_lo, e_lo)
            c_hi = np.where(q_hi > e_hi, q_hi, e_hi)
            hollow = empty[:, None]
            covered = _volume(
                np.where(hollow, q_lo, c_lo), np.where(hollow, q_hi, c_hi)
            )
        enlargement = covered - volume
    # The fold itself runs over plain floats: tuple ``<`` is not a total
    # order once a NaN (inf - inf, 0 * inf) is among the keys, and the
    # reference's answer then depends on the visiting order.
    keys = list(zip(enlargement.tolist(), volume.tolist()))
    best = 0
    for row in range(1, len(keys)):
        if keys[row] < keys[best]:
            best = row
    return best


class WindowParams:
    """Precomputed border lines of one :class:`MovingWindow`.

    ``uc``/``lc`` are the constant terms of the borders rewritten around
    ``t = 0`` (``u(t) = mu·t + uc``) — exactly the subexpressions
    ``u0 - mu * t0`` / ``l0 - ml * t0`` the scalar overlap functions
    compute, evaluated once in Python floats so every kernel row reuses
    the identical values.  The page kernels read each field as a scalar
    that broadcasts over a page, or as an array holding one value per
    row (a :class:`TrajectoryTable`'s columns): the same float64
    operations either way.
    """

    __slots__ = ("t_lo", "t_hi", "dims", "mus", "ucs", "mls", "lcs")

    def __init__(
        self,
        t_lo: float,
        t_hi: float,
        mus: Sequence[float],
        ucs: Sequence[float],
        mls: Sequence[float],
        lcs: Sequence[float],
    ):
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.dims = len(mus)
        self.mus = tuple(mus)
        self.ucs = tuple(ucs)
        self.mls = tuple(mls)
        self.lcs = tuple(lcs)


def window_params(window) -> WindowParams:
    """Extract :class:`WindowParams` from a ``MovingWindow`` (pure Python)."""
    t0 = window.time.low
    mus, ucs, mls, lcs = [], [], [], []
    for i in range(window.dims):
        mu, u0 = window._border(i, upper=True)
        ml, l0 = window._border(i, upper=False)
        mus.append(mu)
        ucs.append(u0 - mu * t0)
        mls.append(ml)
        lcs.append(l0 - ml * t0)
    return WindowParams(t0, window.time.high, mus, ucs, mls, lcs)


class TrajectoryTable:
    """The key times, key windows and border lines of key-snapshot
    trajectories, as the columns :func:`gathered_live_components` and
    :func:`frame_windows` read.

    Trajectory ``t`` has ``m[t]`` segments.  Its key times are row ``t``
    of ``keys``, padded with ``+inf`` to the longest trajectory's, and
    its key windows' corners rows ``t`` of ``lows`` and ``highs``
    (``(trajectories, keys, dims)``, padded alike); the
    :class:`WindowParams` of its segment ``j`` are column ``base[t] + j``
    of ``params``, whose rows are ``t_lo``, ``t_hi``, then ``mus``,
    ``ucs``, ``mls`` and ``lcs`` per dimension, and entry ``base[t] + j``
    of ``windows``.  ``end[t]`` is its last key time.
    """

    __slots__ = ("dims", "keys", "m", "end", "base", "params", "windows", "lows", "highs")

    def __init__(
        self, key_times: Sequence[float], params: Sequence[WindowParams], key_windows: Sequence[Box]
    ):
        self.dims, self.m, self.windows = params[0].dims, np.asarray([len(params)]), params
        self.keys = np.asarray([key_times], dtype=np.float64)
        self.end, self.base = self.keys[:, -1], np.zeros(1, dtype=np.intp)
        self.params = np.asarray(
            [[p.t_lo, p.t_hi, *p.mus, *p.ucs, *p.mls, *p.lcs] for p in params],
            dtype=np.float64,
        ).T
        self.lows = np.asarray([[w.lows for w in key_windows]], dtype=np.float64)
        self.highs = np.asarray([[w.highs for w in key_windows]], dtype=np.float64)

    @classmethod
    def stack(cls, tables: Sequence["TrajectoryTable"]) -> "TrajectoryTable":
        """One table of every trajectory of ``tables`` (of one dims), in order."""
        table, width = cls.__new__(cls), max(t.keys.shape[1] for t in tables)
        table.keys = np.asarray(
            [[*t.keys[0], *[np.inf] * (width - t.keys.shape[1])] for t in tables]
        )
        table.dims, table.m = tables[0].dims, np.concatenate([t.m for t in tables])
        table.end = np.concatenate([t.end for t in tables])
        table.base = np.cumsum(table.m) - table.m
        table.windows = [w for t in tables for w in t.windows]
        table.params = np.concatenate([t.params for t in tables], axis=1)
        table.lows, table.highs = (
            np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1]), (0, 0))) for c in cs])
            for cs in ([t.lows for t in tables], [t.highs for t in tables])
        )
        return table


class StackedTables:
    """The stack of one owner's trajectory tables (a sweep's serving
    members, a tree's live engines), restacked only when they change;
    ``None`` for no tables."""

    def __init__(self) -> None:
        self._stacked: tuple = ((), None)

    def __call__(self, tables: Iterable[TrajectoryTable]) -> Optional[TrajectoryTable]:
        tables = tuple(tables)
        if tables != self._stacked[0]:
            self._stacked = (tables, TrajectoryTable.stack(tables) if tables else None)
        return self._stacked[1]


def _windows_at(table: TrajectoryTable, instants: Sequence[float]):
    """``window_at`` of every trajectory of ``table`` at each of
    ``instants``, as ``(lows, highs)`` arrays of ``(instants,
    trajectories, dims)``, same floats: the instant clamped to the span,
    the segment of the last key time at or before it, ``s.low + frac ·
    (e.low − s.low)``."""
    keys, m = table.keys, table.m
    # axis 0 is the instant, axis 1 the trajectory
    t = np.array([[x] for x in instants], dtype=np.float64)
    t = np.where(keys[:, 0] > t, keys[:, 0], t)  # min(max(t, low), high)
    t = np.where(table.end < t, table.end, t)
    j = np.clip((keys <= t[..., None]).sum(axis=2) - 1, 0, m - 1)  # bisect_right - 1
    rows = np.arange(len(m))
    t0, t1 = keys[rows, j], keys[rows, j + 1]
    frac = ((t - t0) / (t1 - t0))[..., None]  # key times increase: never 0/0
    s_lo, s_hi = table.lows[rows, j], table.highs[rows, j]
    e_lo, e_hi = table.lows[rows, j + 1], table.highs[rows, j + 1]
    return s_lo + frac * (e_lo - s_lo), s_hi + frac * (e_hi - s_hi)


def frame_windows(table: TrajectoryTable, start: float, end: float):
    """The frame window of every trajectory of ``table`` over ``[start,
    end]``, as ``(lows, highs)`` arrays of ``(trajectories, dims)``.

    Row ``t`` is ``QueryTrajectory.frame_query``'s window, same floats:
    the windows at ``start`` and at ``end`` (:func:`_windows_at`) and
    every key window strictly inside the frame after the first key,
    covered in that order as ``Box.cover`` does.
    """
    keys = table.keys
    w_lo, w_hi = _windows_at(table, (start, end))
    lows, highs = _cover(w_lo[0], w_hi[0], w_lo[1], w_hi[1])
    inside = (keys[:, 1:] > start) & (keys[:, 1:] < end)
    row, key = inside.nonzero()  # row-major: each row's keys in key order
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    key += 1
    for step in range(rank.max() + 1 if len(rank) else 0):
        r, k = row[rank == step], key[rank == step]
        lows[r], highs[r] = _cover(
            lows[r], highs[r], table.lows[r, k], table.highs[r, k]
        )
    return lows, highs


def window_centres(table: TrajectoryTable, t: float) -> List[List[float]]:
    """The window centre at ``t`` of every trajectory of ``table``:
    ``window_at(t).center`` (``Interval.midpoint``, ``0.5 * (low +
    high)``), same floats."""
    lows, highs = _windows_at(table, (t,))
    return (0.5 * (lows[0] + highs[0])).tolist()


def _cover(a_lo, a_hi, b_lo, b_hi):
    """Row-wise ``Box.cover``: the other box for an empty one, else per
    axis ``min``/``max`` keeping the first operand on a tie."""
    lo = np.where(b_lo < a_lo, b_lo, a_lo)
    hi = np.where(b_hi > a_hi, b_hi, a_hi)
    a_empty = (a_lo > a_hi).any(axis=1)[:, None]
    b_empty = (b_lo > b_hi).any(axis=1)[:, None]
    lo = np.where(a_empty, b_lo, np.where(b_empty, a_lo, lo))
    return lo, np.where(a_empty, b_hi, np.where(b_empty, a_hi, hi))


# ---------------------------------------------------------------------------
# Elementary batch algebra
# ---------------------------------------------------------------------------


def _solve_ge(slope, intercept):
    """Row-wise ``solve_linear_ge``: bounds of ``{t : slope·t + c >= 0}``
    (the caller ignores the zero slopes' division errors)."""
    root = -intercept / slope
    zero_lo = np.where(intercept >= 0.0, -np.inf, np.inf)
    zero_hi = np.where(intercept >= 0.0, np.inf, -np.inf)
    lo = np.where(slope > 0.0, root, -np.inf)
    lo = np.where(slope == 0.0, zero_lo, lo)
    hi = np.where(slope < 0.0, root, np.inf)
    hi = np.where(slope == 0.0, zero_hi, hi)
    return lo, hi


def _intersect(lo, hi, other_lo, other_hi):
    """Row-wise ``Interval.intersect`` with (lo, hi) as ``self``.

    No empty normalisation: crossed bounds flow through unchanged, which
    is sound because intersection is monotone (see module docstring).
    """
    new_lo = np.where(lo >= other_lo, lo, other_lo)
    new_hi = np.where(hi <= other_hi, hi, other_hi)
    return new_lo, new_hi


def _to_intervals(lo, hi, forced_empty=None) -> List[Interval]:
    """Materialise rows as Intervals, normalising empties like the scalars."""
    out: List[Interval] = []
    for k in range(len(lo)):
        if forced_empty is not None and forced_empty[k]:
            out.append(EMPTY_INTERVAL)
            continue
        low = float(lo[k])
        high = float(hi[k])
        out.append(EMPTY_INTERVAL if low > high else Interval(low, high))
    return out


# ---------------------------------------------------------------------------
# Page kernels
# ---------------------------------------------------------------------------


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # for _solve_ge
def _box_overlap_bounds(params: WindowParams, boxes: BoxBatch):
    """Raw ``(lo, hi, forced_empty)`` rows of ``moving_window_box_overlap``."""
    if boxes.axes != params.dims + 1:
        raise GeometryError(
            f"boxes have {boxes.axes} axes, expected {params.dims + 1}"
        )
    lo, hi = _intersect(
        params.t_lo, params.t_hi, boxes._lows[:, 0], boxes._highs[:, 0]
    )
    forced_empty = np.zeros(boxes.n, dtype=bool)
    for i in range(params.dims):
        r_lo = boxes._lows[:, i + 1]
        r_hi = boxes._highs[:, i + 1]
        forced_empty |= r_lo > r_hi
        # upper border u(t) = mu·t + uc must satisfy u(t) >= r.low
        s_lo, s_hi = _solve_ge(params.mus[i], params.ucs[i] - r_lo)
        lo, hi = _intersect(lo, hi, s_lo, s_hi)
        # lower border l(t) = ml·t + lc must satisfy l(t) <= r.high
        s_lo, s_hi = _solve_ge(-params.mls[i], r_hi - params.lcs[i])
        lo, hi = _intersect(lo, hi, s_lo, s_hi)
    return lo, hi, forced_empty


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # for _solve_ge
def _segment_overlap_bounds(params: WindowParams, segs: SegmentBatch):
    """Raw ``(lo, hi, None)`` rows of ``moving_window_segment_overlap``."""
    if segs.dims != params.dims:
        raise GeometryError(
            f"segments have {segs.dims} dims, window {params.dims}"
        )
    lo, hi = _intersect(params.t_lo, params.t_hi, segs.t_lo, segs.t_hi)
    for i in range(params.dims):
        v = segs.velocity(i)
        # p(t) = pc + v·t with pc = x0 - v * st0
        pc = segs.origin(i) - v * segs.t_lo
        # u(t) - p(t) >= 0
        s_lo, s_hi = _solve_ge(params.mus[i] - v, params.ucs[i] - pc)
        lo, hi = _intersect(lo, hi, s_lo, s_hi)
        # p(t) - l(t) >= 0
        s_lo, s_hi = _solve_ge(v - params.mls[i], pc - params.lcs[i])
        lo, hi = _intersect(lo, hi, s_lo, s_hi)
    return lo, hi, None


def moving_window_box_overlap_batch(
    params: WindowParams, boxes: BoxBatch
) -> List[Interval]:
    """Batch ``moving_window_box_overlap`` over native-space boxes.

    ``boxes`` carries the temporal extent at axis 0 and one spatial
    extent per window dimension after it.
    """
    if boxes.n == 0:
        return []
    return _to_intervals(*_box_overlap_bounds(params, boxes))


def moving_window_segment_overlap_batch(
    params: WindowParams, segs: SegmentBatch
) -> List[Interval]:
    """Batch ``moving_window_segment_overlap`` over motion segments."""
    if segs.n == 0:
        return []
    return _to_intervals(*_segment_overlap_bounds(params, segs))


def trajectory_live_components(
    batch: Union[SegmentBatch, BoxBatch],
    table: "TrajectoryTable",
    frontier: float,
) -> List[Tuple[int, float, float]]:
    """One page against a whole key-snapshot trajectory, survivors only:
    the one-demand case of :func:`gathered_live_components`.

    ``table`` is the trajectory's :class:`TrajectoryTable`.  The result
    is ``(k, low, high)`` for every connected component of entry ``k``'s
    overlap with the trajectory that ends at or after ``frontier``, in
    entry order, then start order — exactly
    ``[(k, c.low, c.high) for k, e in enumerate(page) for c in
    trajectory.segment_overlap(e) if c.high >= frontier]`` (or the
    ``box_overlap`` form), same floats.  Each entry meets the trajectory
    segments the scalar ``_segment_range`` would visit: those from the
    one containing its extent's low (closed on the left) up to, and not
    including, the one starting at or after its high, the extent clamped
    to the span; none when it is empty.  A zero-width extent on a key
    time — clamped, also an extent touching the span only at its first
    or last key time — meets the one segment starting there (the last
    one at the final key).
    """
    return gathered_live_components(table, [(batch, 0, frontier)])[0]


def gathered_live_components(
    table: "TrajectoryTable",
    demands: Sequence[Tuple[Union[SegmentBatch, BoxBatch], int, float]],
) -> List[List[Tuple[int, float, float]]]:
    """:func:`trajectory_live_components` of many demands in one pass.

    A demand is ``(batch, t, frontier)``: a page (all of them segment
    batches, or all box batches) against trajectory ``t`` of ``table``.
    Every row of every demand is evaluated against the params of each
    trajectory segment it meets, with its own frontier, in one kernel
    call; the kernels are elementwise, so each demand gets the list it
    gets alone, same floats, same order.
    """
    sizes = [batch.n for batch, _, _ in demands]
    if not any(sizes):
        return [[] for _ in demands]
    full = [batch for batch, _, _ in demands if batch.n]
    if isinstance(full[0], SegmentBatch):
        rows = [b._rows for b in full]
        rows = np.concatenate(rows, axis=1) if full[1:] else rows[0]
        t_lo, t_hi = rows[0], rows[1]
    else:
        rows = [(b._lows, b._highs) for b in full]
        rows = tuple(map(np.concatenate, zip(*rows))) if full[1:] else rows[0]
        t_lo, t_hi = rows[0][:, 0], rows[1][:, 0]
    if len(demands) == 1:  # the demand's columns broadcast as one row
        (_, t, front), = demands
        traj = slice(t, t + 1)
    else:
        owner = np.repeat(np.arange(len(demands)), sizes)
        traj = np.asarray([t for _, t, _ in demands])[owner]
        front = np.asarray([f for _, _, f in demands])[owner]
    # Key-segment selection over key times padded with +inf: the count
    # of keys <= v is searchsorted "right", of keys < v "left".
    keys, m = table.keys[traj], table.m[traj]
    t_lo = np.maximum(t_lo, keys[:, 0])
    t_hi = np.minimum(t_hi, table.end[traj])
    first = (keys <= t_lo[:, None]).sum(axis=1) - 1
    at = (keys < t_hi[:, None]).sum(axis=1)
    last = np.minimum(at, m)
    instant = t_lo == t_hi
    if instant.any():
        on_key = instant & (np.take_along_axis(keys, last[:, None], 1)[:, 0] == t_lo)
        first = np.where(on_key, last - (at == m), first)
        last = np.where(on_key, first + 1, last)
    span = np.where(t_lo > t_hi, 0, last - first)
    most = span.max()
    if most <= 0:
        return [[] for _ in demands]
    if most == 1:  # the usual page: each row against its one segment, or any
        pair_rows, j = slice(None), np.minimum(first, m - 1)
    else:  # one (row, trajectory segment) pair per segment a row meets
        pair_rows, starts = np.repeat(np.arange(len(span)), span), np.cumsum(span) - span
        j = first[pair_rows] + (np.arange(len(pair_rows)) - np.repeat(starts, span))
        if isinstance(rows, tuple):
            rows = (rows[0][pair_rows], rows[1][pair_rows])
        else:
            rows = rows[:, pair_rows]
        if len(demands) > 1:
            traj, front = traj[pair_rows], front[pair_rows]
    column, d = table.base[traj] + j, table.dims
    if column.min() == column.max():  # one window for every row: it broadcasts
        params = table.windows[column[0]]
    else:
        column = table.params[:, column]
        params = WindowParams(
            column[0], column[1], *(column[2 + i * d : 2 + (i + 1) * d] for i in range(4))
        )
    if isinstance(rows, tuple):
        lo, hi, forced_empty = _box_overlap_bounds(params, BoxBatch._of(*rows))
        live = ~((lo > hi) | forced_empty)
    else:
        segs = SegmentBatch.__new__(SegmentBatch)
        segs._rows, segs.n, segs.dims = rows, rows.shape[1], (rows.shape[0] - 2) // 2
        lo, hi, _ = _segment_overlap_bounds(params, segs)
        live = ~(lo > hi)
    if most == 1:
        live &= span > 0
        keep = live & (hi >= front)
        hit = np.flatnonzero(keep)
    else:
        # A row alive in one trajectory segment is that interval.  Only
        # a row alive in several needs TimeSet's sort-and-coalesce, and
        # there the frontier test applies to the coalesced components.
        pieces = np.bincount(pair_rows[live], minlength=len(span))
        keep = live & (hi >= front) & (pieces[pair_rows] == 1)
        hit = pair_rows[keep]
    found = list(zip(hit.tolist(), lo[keep].tolist(), hi[keep].tolist()))
    several = np.flatnonzero(pieces > 1).tolist() if most > 1 else []
    if several:  # a row's pairs are contiguous, from starts[row]
        lo, hi, live, starts = lo.tolist(), hi.tolist(), live.tolist(), starts.tolist()
        for r in several:
            mine = range(starts[r], starts[r] + int(span[r]))
            union = _coalesce(sorted(
                ((lo[p], hi[p]) for p in mine if live[p]), key=itemgetter(0)
            ))
            limit = front if len(demands) == 1 else front[mine[0]]
            found.extend((r, low, high) for low, high in union if high >= limit)
        found.sort(key=itemgetter(0))  # stable: start order within a row
    if len(demands) == 1:
        return [found]
    # Each demand's components, renumbered from its page's first row.
    out: List[List[Tuple[int, float, float]]] = [[] for _ in demands]
    ends, d, start = np.cumsum(sizes).tolist(), 0, 0
    for r, low, high in found:
        while r >= ends[d]:
            start, d = ends[d], d + 1
        out[d].append((r - start, low, high))
    return out


def _coalesce(pieces: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``TimeSet``'s normalisation of non-empty ``(low, high)`` pieces
    sorted by low: merge any that touch or overlap, same floats."""
    merged = pieces[:1]
    for low, high in pieces[1:]:
        last_low, last_high = merged[-1]
        if low > last_high:
            merged.append((low, high))
        elif high > last_high:
            merged[-1] = (last_low, high)
    return merged


def segment_box_overlap_batch(
    segs: SegmentBatch, query: Union[Box, BoxBatch]
) -> List[Interval]:
    """Batch ``segment_box_overlap_interval`` against static query boxes.

    ``query`` is one :class:`Box` for every row, or a :class:`BoxBatch`
    holding each row's own box — the same arithmetic, broadcast.
    """
    if segs.n == 0:
        return []
    if isinstance(query, BoxBatch):
        if query.n != segs.n:
            raise GeometryError(f"{query.n} query boxes for {segs.n} segments")
        dims, q_lows, q_highs = query.width, query._lows.T, query._highs.T
    else:
        dims, q_lows, q_highs = query.dims, query.lows, query.highs
    if dims != segs.dims + 1:
        raise GeometryError(f"query has {dims} dims, expected {segs.dims + 1}")
    lo, hi = _segment_box_bounds(segs, q_lows, q_highs)
    return [
        EMPTY_INTERVAL if low > high else Interval(low, high)
        for low, high in zip(lo.tolist(), hi.tolist())
    ]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # v == 0, inf spans
def _segment_box_bounds(segs: SegmentBatch, q_lows, q_highs):
    """:func:`segment_box_overlap_batch` as ``(low, high)`` arrays — an
    empty row is ``(inf, -inf)`` — the query's bounds given per axis (a
    float, or one per row)."""
    lo, hi = _intersect(segs.t_lo, segs.t_hi, q_lows[0], q_highs[0])
    forced_empty = np.zeros(segs.n, dtype=bool)
    # Interval.length is max(0.0, high - low); mirror Python's max()
    # branch rather than np.maximum (signed-zero choice differs).
    d = segs.t_hi - segs.t_lo
    length = np.where(d > 0.0, d, 0.0)
    for i in range(segs.dims):
        w_lo = q_lows[i + 1]
        w_hi = q_highs[i + 1]
        x0 = segs.origin(i)
        v = segs.velocity(i)
        # Rest dimension (exactly the scalar's sub-ulp displacement test):
        # containment decides, the algebraic branch is skipped.
        rest = (v == 0.0) | (x0 + v * length == x0)
        forced_empty |= rest & ~((w_lo <= x0) & (x0 <= w_hi))
        ta = segs.t_lo + (w_lo - x0) / v
        tb = segs.t_lo + (w_hi - x0) / v
        o_lo = np.where(ta <= tb, ta, tb)
        o_hi = np.where(ta <= tb, tb, ta)
        new_lo, new_hi = _intersect(lo, hi, o_lo, o_hi)
        lo = np.where(rest, lo, new_lo)
        hi = np.where(rest, hi, new_hi)
    empty = forced_empty | (lo > hi)
    return np.where(empty, np.inf, lo), np.where(empty, -np.inf, hi)


def stamp_column(stamps: Sequence[int]):
    """Per-entry operation-clock stamps as the int64 column :func:`level_live_rows` reads."""
    return np.asarray(stamps, dtype=np.int64)


class DiscardRule:
    """Query side of the dual-tree discard rule ``(Q ∩ R) ⊆ P`` (Lemma 1)
    for a block of clients, one row each.

    Row ``c`` holds client ``c``'s query ``Q`` in dual-time space and its
    previous query ``P``, read at operation clock ``clock``.  Without a
    ``P`` (or with an empty one, which contains nothing) no entry is ever
    covered for that client and the rule is a plain overlap test.

    The bounds become arrays here, once per block, held per axis,
    together with the per-client halves of the coverage test — ``P.low ≤
    Q.low`` and ``Q.high ≤ P.high`` — and whether ``Q`` itself is empty,
    so a page costs only the comparisons of its rows.  ``DiscardRule(Q,
    P, clock)`` is the block of one client and :meth:`of` the block of
    many, built from their columns.
    """

    __slots__ = ("axes", "_query", "_prev")

    def __init__(self, query: Box, prev: Optional[Box] = None, clock: int = -1):
        self._build(*_box_rows([query], [prev], [clock]))

    @classmethod
    def of(
        cls,
        queries: Sequence[Box],
        prevs: Sequence[Optional[Box]],
        clocks: Sequence[int],
    ) -> "DiscardRule":
        """The block of ``len(queries)`` clients, row ``c`` from
        ``queries[c]``, ``prevs[c]`` (``None`` for no ``P``) and
        ``clocks[c]``."""
        rule = cls.__new__(cls)
        rule._build(*_box_rows(queries, prevs, clocks))
        return rule

    def _build(self, q_lows, q_highs, p_lows=None, p_highs=None, clock=None) -> None:
        """The block of ``(clients, axes)`` bound rows of ``Q`` and ``P``
        (none when no client has a ``P``; one without has its ``Q`` in
        ``P``'s place and a clock before every stamp, so ``P`` covers
        nothing for it).  An empty ``P`` needs no mark: ``P.low ≤ max(R.low,
        Q.low) ≤ min(R.high, Q.high) ≤ P.high`` fails where ``P.low > P.high``."""
        self.axes = q_lows.shape[1]
        q_lows, q_highs = q_lows.T[..., None], q_highs.T[..., None]
        #: ``(Q lows, Q highs, Q empty)``: per axis ``(axes, clients, 1)``,
        #: per client ``(clients, 1)`` — shaped to broadcast against
        #: ``(axes, clients, rows)`` box planes
        self._query = (q_lows, q_highs, (q_lows > q_highs).any(axis=0))
        if p_lows is None:
            #: ``(P lows, P highs, P.low ≤ Q.low, Q.high ≤ P.high, clock)``,
            #: shaped alike; ``None`` when no client has a ``P``
            self._prev = None
            return
        p_lows, p_highs = p_lows.T[..., None], p_highs.T[..., None]
        self._prev = (
            p_lows, p_highs, p_lows <= q_lows, q_highs <= p_highs, clock[:, None]
        )

    def _per_pair(self, clients: Sequence[int]):
        """The ``(query, prev)`` columns of the client of each pair."""
        pick = np.asarray(clients, dtype=np.intp)
        return tuple(
            None if side is None else tuple(c[..., pick, :] for c in side)
            for side in (self._query, self._prev)
        )


#: the clock of a client whose ``P`` covers nothing: before every stamp
_NO_CLOCK = np.iinfo(np.int64).min


def _box_rows(queries, prevs, clocks):
    """:meth:`DiscardRule._build`'s bound rows of ``Q`` and ``P`` boxes."""
    axes = queries[0].dims
    for b in (*queries, *prevs):
        if b is not None and b.dims != axes:
            raise GeometryError(f"a {b.dims}-axis box in a block of {axes}-axis queries")
    if all(p is None for p in prevs):
        return _corners(queries)
    clock = [_NO_CLOCK if p is None else c for p, c in zip(prevs, clocks)]
    return (
        *_corners(queries),
        *_corners([q if p is None else p for q, p in zip(queries, prevs)]),
        np.array(clock, dtype=np.int64),
    )


def _corners(boxes: Sequence[Box]):
    return (
        np.array([b.lows for b in boxes], dtype=np.float64),
        np.array([b.highs for b in boxes], dtype=np.float64),
    )


class QueryBlock:
    """The snapshot queries of a sweep's clients as columns, row ``c``
    client ``c``'s: native-space boxes ``<t̄, window>`` as ``(clients, 1
    + dims)`` arrays ``lows`` and ``highs``, and each ``t̄`` in ``times``.
    A client remembers its previous query ``P`` as the float row
    :meth:`memory` gives it (native lows, highs, then the clock reading);
    :meth:`recall` makes a sweep's rows the block's ``P``."""

    __slots__ = ("lows", "highs", "times", "prev")

    def __init__(self, lows, highs, times: Sequence[Interval]):
        self.lows, self.highs, self.times = lows, highs, times
        #: ``(P lows, P highs, clock)`` arrays, once recalled
        self.prev = None

    @classmethod
    def of(cls, queries: Sequence) -> "QueryBlock":
        """The block of snapshot queries of one dimensionality."""
        return cls(
            np.array([(q.time.low, *q.window.lows) for q in queries], dtype=np.float64),
            np.array([(q.time.high, *q.window.highs) for q in queries], dtype=np.float64),
            [q.time for q in queries],
        )

    @classmethod
    def frames(cls, table: TrajectoryTable, start: float, end: float) -> "QueryBlock":
        """The frame queries over ``[start, end]`` of every trajectory of
        ``table`` (:func:`frame_windows`)."""
        lows, highs = frame_windows(table, start, end)
        if (lows > highs).any():  # rounding can cross an interpolated window
            raise QueryError("snapshot query has empty spatial window")
        return cls(
            np.insert(lows, 0, start, axis=1),
            np.insert(highs, 0, end, axis=1),
            [Interval(start, end)] * len(lows),
        )

    @property
    def dims(self) -> int:
        """Spatial dimensionality of the windows."""
        return self.lows.shape[1] - 1

    def window(self, c: int) -> Box:
        """Client ``c``'s window."""
        return Box.from_bounds(self.lows[c, 1:].tolist(), self.highs[c, 1:].tolist())

    def memory(self, clock: int) -> List[List[float]]:
        """Every client's row of ``P`` for its next query, read at ``clock``."""
        clocks = np.full((len(self.lows), 1), clock, dtype=np.float64)
        return np.concatenate((self.lows, self.highs, clocks), axis=1).tolist()

    def recall(self, memory: Sequence[Optional[Sequence[float]]]) -> DiscardRule:
        """Take ``memory`` — per client a :meth:`memory` row, or ``None``
        — as the block's ``P``; returns the block's :class:`DiscardRule`
        in dual-time space."""
        rule = DiscardRule.__new__(DiscardRule)
        if all(row is None for row in memory):
            rule._build(*_dual(self.lows, self.highs))
            return rule
        # a client without P has its Q in P's place and a clock before
        # every stamp, as in DiscardRule.of
        own = self.memory(_NO_CLOCK)
        rows = np.array([o if m is None else m for m, o in zip(memory, own)], dtype=np.float64)
        axes = self.lows.shape[1]
        self.prev = rows[:, :axes], rows[:, axes:-1], rows[:, -1].astype(np.int64)
        rule._build(*_dual(self.lows, self.highs), *_dual(*self.prev[:2]), self.prev[2])
        return rule

    def leaf_tests(self, pieces: Sequence[tuple]) -> Iterator[tuple]:
        """The segment tests of ``rows`` of each ``(segments, stamps,
        rows, client)`` (leaf page, client) pair: per row, pairs in
        order, ``(old, seen, low, high)`` — ``old`` when
        ``P`` was read no earlier than the row's stamp, ``seen`` when
        ``P``'s native box also meets its segment, ``(low, high)`` the
        :func:`segment_box_overlap_batch` bounds against the client's box
        ``<[t̄.low, +inf], window>``.  A page's columns are stacked once
        however many clients read it, and rows gathered by index into it."""
        at: dict = {}  # id(segments) -> offset of the page in the stack
        pages, index, sizes, stacked = [], [], [], 0
        for segments, stamps, rows, _client in pieces:
            offset = at.get(id(segments))
            if offset is None:
                offset = at[id(segments)] = stacked
                stacked += segments.n
                pages.append((segments._rows, stamps))
            index.extend([offset + k for k in rows])
            sizes.append(len(rows))
        n, index = len(index), np.asarray(index, dtype=np.intp)
        client = np.repeat([p[3] for p in pieces], sizes)
        segments, stamps = zip(*pages)
        lows, highs, old = self.lows[client], self.highs[client], np.zeros(n, dtype=bool)
        highs[:, 0] = np.inf
        tested = index
        if self.prev is not None:
            p_lows, p_highs, clock = self.prev
            old = np.concatenate(stamps)[index] <= clock[client]
            lows = np.concatenate((lows, p_lows[client]))
            highs = np.concatenate((highs, p_highs[client]))
            tested = np.concatenate((index, index))
        segs = SegmentBatch.__new__(SegmentBatch)
        segs._rows = np.concatenate(segments, axis=1)[:, tested]
        segs.n, segs.dims = len(tested), pieces[0][0].dims
        low, high = _segment_box_bounds(segs, lows.T, highs.T)
        seen = old & (low[n:] <= high[n:]) if self.prev is not None else old
        return zip(old.tolist(), seen.tolist(), low[:n].tolist(), high[:n].tolist())


def _dual(lows, highs):
    """Dual-time bounds ``<[-inf, t̄.high], [t̄.low, +inf], window>`` of
    native-space rows ``<t̄, window>``."""
    return np.insert(lows, 0, -np.inf, axis=1), np.insert(highs, 1, np.inf, axis=1)


def _discard_masks(lows, highs, query, prev):
    """``(pairs, rows)`` masks ``(empty, covered)`` of box planes ``lows``,
    ``highs`` (``(axes, pairs or 1, rows)``) under the per-pair ``query``
    and ``prev`` columns of a rule (:meth:`DiscardRule._per_pair`).

    ``empty[j, k]`` iff row ``k`` of pair ``j``'s page misses that pair's
    ``Q``; ``covered[j, k]`` iff its ``P`` contains their intersection.
    This is the one statement of Lemma 1's rule, axis by axis.  The
    scalar reference intersects first — ``lo = max(R.low, Q.low)``,
    ``hi = min(R.high, Q.high)`` — and asks ``lo > hi`` and ``P.low ≤ lo
    ∧ hi ≤ P.high``; for the NaN-free bounds of every box the same
    answers are the comparisons of the bounds themselves:

    * the intersection is empty iff ``R.low > Q.high``, ``Q.low >
      R.high``, ``R.low > R.high`` or ``Q.low > Q.high``;
    * ``P.low ≤ max(R.low, Q.low)`` iff ``P.low ≤ R.low ∨ P.low ≤ Q.low``,
      and ``min(R.high, Q.high) ≤ P.high`` iff ``R.high ≤ P.high ∨ Q.high
      ≤ P.high`` — the second half of each is per client, in the rule.

    ``covered`` therefore means nothing on an ``empty`` row (as the
    scalar's ``prev.contains_box(shared)`` is only asked of a non-empty
    ``shared``), nor for a client without a ``P``, whose clock precedes
    every stamp; it is ``None`` when no client of the rule has a ``P``.
    """
    q_lows, q_highs, q_empty = query
    apart = (lows > q_highs) | (highs < q_lows) | (lows > highs)
    empty = apart.any(axis=0) | q_empty
    if prev is None:
        return empty, None
    p_lows, p_highs, low_side, high_side, _clock = prev
    inside = ((lows >= p_lows) | low_side) & ((highs <= p_highs) | high_side)
    return empty, inside.all(axis=0)


def _check_axes(boxes: BoxBatch, rule: DiscardRule) -> None:
    if boxes.axes != rule.axes:
        raise GeometryError(f"query has {rule.axes} axes, boxes {boxes.axes}")


def _planes(boxes: BoxBatch):
    """One page's bounds as ``(axes, 1, rows)`` planes, to broadcast
    against every reader of the page."""
    return boxes._lows.T[:, None], boxes._highs.T[:, None]


def _rows_per_pair(live) -> List[List[int]]:
    """The true columns of each row of a ``(pairs, rows)`` mask, in order."""
    rows = live.nonzero()[1].tolist()
    out, at = [], 0
    for count in live.sum(axis=1).tolist():
        out.append(rows[at : at + count])
        at += count
    return out


def level_live_rows(
    pages: Sequence[Tuple[BoxBatch, object, Sequence[int]]], rule: DiscardRule
) -> List[List[int]]:
    """Rows of many dual-tree pages that each of their readers' descents
    must still look at, in one evaluation of the rule.

    ``pages`` holds ``(boxes, stamps, readers)`` per page: its box batch,
    its :func:`stamp_column` and the rows of ``rule`` (the clients) that
    read it.  Entry ``k`` of a page is *dead* for a reader when its box
    misses the reader's ``Q``, or when it is no newer than ``P``'s clock
    reading and ``P`` covers its share of ``Q`` — ``P``'s run already
    inspected everything of it that matters.  Returns the live rows of
    every ``(page, reader)`` pair, in entry order, pairs in page order
    and then reader order.

    The pages are padded to the longest one with rows that miss every
    query, so the pairs form ``(axes, pairs, rows)`` planes; one page is
    broadcast against its readers instead of copied per reader.
    """
    live_pages = [boxes for boxes, _, _ in pages if boxes.n]
    for boxes in live_pages:
        _check_axes(boxes, rule)
    if not live_pages:
        return [[] for _, _, readers in pages for _ in readers]
    if len(pages) == 1:
        boxes, stamps, clients = pages[0]
        (lows, highs), stamps = _planes(boxes), stamps[None]
    else:
        sizes = np.asarray([len(stamps) for _, stamps, _ in pages], dtype=np.intp)
        counts = [len(readers) for _, _, readers in pages]
        # one more row past the real ones: an empty box, dead for every reader
        pad = sizes.sum()
        grid = np.arange(sizes.max())
        starts = np.cumsum(sizes) - sizes
        cells = np.where(grid < sizes[:, None], starts[:, None] + grid, pad)
        cells = cells.repeat(counts, axis=0)
        axes = rule.axes
        # ``take``, not ``[:, cells]``: that result is laid out pairs-first,
        # and every plane operation below would stride through it
        lows = np.concatenate(
            [b._lows.T for b in live_pages] + [np.full((axes, 1), np.inf)], axis=1
        ).take(cells, axis=1)
        highs = np.concatenate(
            [b._highs.T for b in live_pages] + [np.full((axes, 1), -np.inf)], axis=1
        ).take(cells, axis=1)
        stamps = np.concatenate(
            [s for _, s, _ in pages] + [np.zeros(1, dtype=np.int64)]
        ).take(cells)
        clients = [c for _, _, readers in pages for c in readers]
    return _rows_per_pair(_live(lows, highs, stamps, *rule._per_pair(clients)))


def _live(lows, highs, stamps, query, prev):
    """The ``(pairs, rows)`` mask of the rows still live: not ``empty``,
    and not ``covered`` by a ``P`` read no earlier than their stamp."""
    empty, covered = _discard_masks(lows, highs, query, prev)
    if covered is not None:
        empty |= covered & (stamps <= prev[-1])
    return ~empty


def live_rows(boxes: BoxBatch, stamps, rule: DiscardRule) -> List[int]:
    """The live rows of one page for a one-client ``rule``, in entry order:
    the one-page case of :func:`level_live_rows`, which the range search,
    the delete path's leaf lookup and the prediction walk descend through."""
    if boxes.n == 0:
        return []
    _check_axes(boxes, rule)
    live = _live(*_planes(boxes), stamps, rule._query, rule._prev)
    return live[0].nonzero()[0].tolist()


def box_query_masks(
    boxes: BoxBatch, query: Box, prev: Optional[Box] = None
) -> Tuple[List[bool], List[bool]]:
    """The ``(empty, covered)`` masks behind :func:`live_rows`, as lists.

    Kept for ``bench/layers.py``, which times the rule's row arithmetic
    through this name.
    """
    if boxes.n == 0:
        return [], []
    rule = DiscardRule(query, prev)
    _check_axes(boxes, rule)
    empty, covered = _discard_masks(*_planes(boxes), rule._query, rule._prev)
    return empty[0].tolist(), [False] * boxes.n if covered is None else covered[0].tolist()
