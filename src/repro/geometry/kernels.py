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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.timeset import TimeSet

__all__ = [
    "available",
    "SegmentBatch",
    "BoxBatch",
    "RecordLayout",
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
    "trajectory_live_components",
    "gathered_live_components",
    "segment_box_overlap_batch",
    "stamp_column",
    "DiscardRule",
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

    @classmethod
    def of(cls, segments: Sequence) -> "SegmentBatch":
        """The batch of ``segments`` (``SpaceTimeSegment``), one row each."""
        return cls(
            [s.time.low for s in segments],
            [s.time.high for s in segments],
            [s.origin for s in segments],
            [s.velocity for s in segments],
        )

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
    """The key times and border lines of key-snapshot trajectories, as
    the columns :func:`gathered_live_components` reads.

    Trajectory ``t`` has ``m[t]`` segments.  Its key times are row ``t``
    of ``keys``, padded with ``+inf`` to the longest trajectory's; the
    :class:`WindowParams` of its segment ``j`` are column ``base[t] + j``
    of ``params``, whose rows are ``t_lo``, ``t_hi``, then ``mus``,
    ``ucs``, ``mls`` and ``lcs`` per dimension, and entry ``base[t] + j``
    of ``windows``.  ``end[t]`` is its last key time.
    """

    __slots__ = ("dims", "keys", "m", "end", "base", "params", "windows")

    def __init__(self, key_times: Sequence[float], params: Sequence[WindowParams]):
        self.dims, self.m, self.windows = params[0].dims, np.asarray([len(params)]), params
        self.keys = np.asarray([key_times], dtype=np.float64)
        self.end, self.base = self.keys[:, -1], np.zeros(1, dtype=np.intp)
        self.params = np.asarray(
            [[p.t_lo, p.t_hi, *p.mus, *p.ucs, *p.mls, *p.lcs] for p in params],
            dtype=np.float64,
        ).T

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
        return table


# ---------------------------------------------------------------------------
# Elementary batch algebra
# ---------------------------------------------------------------------------


def _solve_ge(slope, intercept):
    """Row-wise ``solve_linear_ge``: bounds of ``{t : slope·t + c >= 0}``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
) -> List[Tuple[int, Interval]]:
    """One page against a whole key-snapshot trajectory, survivors only:
    the one-demand case of :func:`gathered_live_components`.

    ``table`` is the trajectory's :class:`TrajectoryTable`.  The result
    is ``(k, component)`` for every connected component of entry ``k``'s
    overlap with the trajectory that ends at or after ``frontier``, in
    entry order, then start order — exactly
    ``[(k, c) for k, e in enumerate(page) for c in
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
) -> List[List[Tuple[int, Interval]]]:
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
    found = list(zip(hit.tolist(), map(Interval, lo[keep].tolist(), hi[keep].tolist())))
    several = np.flatnonzero(pieces > 1).tolist() if most > 1 else []
    if several:  # a row's pairs are contiguous, from starts[row]
        lo, hi, live, starts = lo.tolist(), hi.tolist(), live.tolist(), starts.tolist()
        for r in several:
            mine = range(starts[r], starts[r] + int(span[r]))
            union = TimeSet(Interval(lo[p], hi[p]) for p in mine if live[p])
            limit = front if len(demands) == 1 else front[mine[0]]
            found.extend((r, c) for c in union if c.high >= limit)
        found.sort(key=itemgetter(0))  # stable: start order within a row
    if len(demands) == 1:
        return [found]
    # Each demand's components, renumbered from its page's first row.
    out: List[List[Tuple[int, Interval]]] = [[] for _ in demands]
    ends, d, start = np.cumsum(sizes).tolist(), 0, 0
    for r, component in found:
        while r >= ends[d]:
            start, d = ends[d], d + 1
        out[d].append((r - start, component))
    return out


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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ta = segs.t_lo + (w_lo - x0) / v
            tb = segs.t_lo + (w_hi - x0) / v
        o_lo = np.where(ta <= tb, ta, tb)
        o_hi = np.where(ta <= tb, tb, ta)
        new_lo, new_hi = _intersect(lo, hi, o_lo, o_hi)
        lo = np.where(rest, lo, new_lo)
        hi = np.where(rest, hi, new_hi)
    return _to_intervals(lo, hi, forced_empty)


def stamp_column(stamps: Sequence[int]):
    """Per-entry operation-clock stamps as the int64 column :func:`live_rows` reads."""
    return np.asarray(stamps, dtype=np.int64)


class DiscardRule:
    """Query side of the dual-tree discard rule ``(Q ∩ R) ⊆ P`` (Lemma 1).

    ``query`` is ``Q`` in dual-time space; ``prev`` is ``P``, read at
    operation clock ``clock``.  The bounds become arrays here, once per
    descent, so each page costs only the row arithmetic.  Without a
    ``prev`` (or with an empty one, which contains nothing) no row is
    ever covered and the rule is a plain overlap test.

    The arrays are ``(clients, axes)`` blocks: a rule built here is a
    block of one row, :meth:`stack` makes one block of many clients'
    rules and :meth:`take` a block of some of its rows, so one
    :func:`live_rows` call evaluates a page for every client reading it.
    """

    __slots__ = ("axes", "block", "stacked")

    def __init__(self, query: Box, prev: Optional[Box] = None, clock: int = -1):
        self.axes, self.stacked = query.dims, False
        has_prev = prev is not None and not prev.is_empty
        if has_prev and prev.dims != query.dims:
            raise GeometryError(f"prev has {prev.dims} axes, query {query.dims}")
        p = prev if has_prev else query  # masked out by has_prev: any will do
        #: ``(Q lows, Q highs, P lows, P highs, has P, clock)``, a row each
        self.block = (
            np.asarray([query.lows], dtype=np.float64),
            np.asarray([query.highs], dtype=np.float64),
            np.asarray([p.lows], dtype=np.float64),
            np.asarray([p.highs], dtype=np.float64),
            np.asarray([has_prev]),
            np.asarray([clock], dtype=np.int64),
        )

    def _of(self, block) -> "DiscardRule":
        rule = DiscardRule.__new__(DiscardRule)
        rule.axes, rule.block, rule.stacked = self.axes, tuple(block), True
        return rule

    @classmethod
    def stack(cls, rules: Sequence["DiscardRule"]) -> "DiscardRule":
        """One block of ``rules``, one row each, in order."""
        if any(r.axes != rules[0].axes for r in rules):
            raise GeometryError("stacked rules differ in axes")
        return rules[0]._of(map(np.concatenate, zip(*(r.block for r in rules))))

    def take(self, rows: Sequence[int]) -> "DiscardRule":
        """The block of just ``rows`` of this one, in that order."""
        return self._of(column[rows] for column in self.block)


def _discard_masks(boxes: BoxBatch, rule: DiscardRule):
    """``(clients, rows)`` masks ``(empty, covered)`` of one non-empty
    page under each row of ``rule``.

    ``empty[c, k]`` iff ``boxes[k].intersect(Q_c)`` is empty;
    ``covered[c, k]`` iff ``P_c`` contains that intersection — the scalar
    ``prev.contains_box(shared)`` with ``shared`` known non-empty, so the
    raw (unnormalised) bounds are exactly the scalar's and ``covered``
    means nothing on an ``empty`` row.  Without a ``P_c`` nothing is
    covered.
    """
    if rule.axes != boxes.axes:
        raise GeometryError(f"query has {rule.axes} axes, boxes {boxes.axes}")
    q_lows, q_highs, p_lows, p_highs, has_prev, _clock = rule.block
    lows, highs = boxes._lows[None], boxes._highs[None]
    i_lo = np.where(lows >= q_lows[:, None], lows, q_lows[:, None])
    i_hi = np.where(highs <= q_highs[:, None], highs, q_highs[:, None])
    empty = (i_lo > i_hi).any(axis=2)
    if not has_prev.any():
        return empty, np.zeros(empty.shape, dtype=bool)
    covered = (p_lows[:, None] <= i_lo) & (i_hi <= p_highs[:, None])
    return empty, covered.all(axis=2) & has_prev[:, None]


def live_rows(boxes: BoxBatch, stamps, rule: DiscardRule):
    """Rows of one dual-tree page a descent for ``rule`` must still look at.

    Entry ``k`` (box ``boxes[k]``, stamp ``stamps[k]`` from
    :func:`stamp_column`) is *dead* when its box misses ``Q``, or when it
    is no newer than ``P``'s clock reading and ``P`` covers its share of
    ``Q`` — ``P``'s run already inspected everything of it that matters.
    Returns the others, in entry order: one list for a rule, one list
    per row for a :meth:`~DiscardRule.stack` of rules.  This is the only
    implementation of the rule: the prediction walk and the NPDQ sweep
    both descend through it.
    """
    clock = rule.block[-1]
    if boxes.n == 0:
        return [[] for _ in clock] if rule.stacked else []
    empty, covered = _discard_masks(boxes, rule)
    live = ~(empty | (covered & (stamps <= clock[:, None])))
    if not rule.stacked:
        return live[0].nonzero()[0].tolist()
    rows = live.nonzero()[1].tolist()
    out, at = [], 0
    for count in live.sum(axis=1).tolist():
        out.append(rows[at : at + count])
        at += count
    return out


def box_query_masks(
    boxes: BoxBatch, query: Box, prev: Optional[Box] = None
) -> Tuple[List[bool], List[bool]]:
    """The ``(empty, covered)`` masks behind :func:`live_rows`, as lists.

    Kept for ``bench/layers.py``, which times the rule's row arithmetic
    through this name.
    """
    if boxes.n == 0:
        return [], []
    empty, covered = _discard_masks(boxes, DiscardRule(query, prev))
    return empty[0].tolist(), covered[0].tolist()
