"""Wire protocol between the remote front-end and its shard workers.

One message is one *frame*: a fixed 16-byte header followed by a JSON
body.  The header mirrors the durable WAL's slot-header discipline
(magic, version, type, length, CRC32 of the body), so a torn or
corrupted frame is detected before any payload is interpreted:

    offset  size  field
    0       4     magic ``DQRW``
    4       1     protocol version (currently 4)
    5       1     message type
    6       2     (padding)
    8       4     body length in bytes (little-endian)
    12      4     CRC32 of the body

The body is canonical JSON (sorted keys, no whitespace) so identical
payloads encode to identical bytes.  Library objects cross the pipe
through a small typed-object registry — each is wrapped as
``{"!dq": tag, "v": ...}`` with an explicit per-type schema — rather
than pickling, keeping the wire format language-neutral, versionable,
and safe to parse from an untrusted peer.  Floats survive exactly:
``json`` emits ``repr``-round-trippable literals, which is what makes
byte-identical answers across the process boundary possible at all.

A tick result's answers are not one JSON object each: every
:class:`~repro.core.results.AnswerBlock` (``items``, ``prefetched``)
and :class:`~repro.core.results.NeighborBlock` (``neighbors``) crosses
as one ``{"!dq": "cb", "v": <base64>}`` wire object whose bytes are
packed columns, little-endian:

    offset      size        field
    0           1           block kind (0 answers, 1 neighbours,
                            2 segment table)
    1           1           column count ``c``
    2           1           segment dimensions ``d`` (0 when empty)
    3           1           (padding)
    4           4           row count ``n``
    8           8·c         per column: dtype code (``q`` int64 or
                            ``d`` float64), 3 pad bytes, length (= n)
    8 + 8·c     8·n·c       the columns, in order: object id ``q``,
                            seq ``q``, then ``low``, ``high`` ``d``
                            (answers), ``distance`` ``d`` (neighbours)
                            or nothing more (segment table)
    ...         8·n·(2+2d)  segment rows, float64: ``t0, t1``, origin,
                            velocity

Both ends move an answer block's values with one ``struct`` call
(faster than numpy at a frame's few rows); the receiver keeps each
segment row as a tuple of floats until a record is asked for.  A LOAD's
``segments``, a shard's whole bucket, is a segment table block, moved as
arrays (:func:`~repro.geometry.kernels.pack_table`).  Every length is
checked against ``n`` and the buffer's exact size, so a short, long or
mislabelled block is a :class:`~repro.errors.RemoteProtocolError`, not
a partial result.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
import zlib
from dataclasses import fields as _dataclass_fields
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.core.query import JoinAnswer
from repro.core.results import AnswerBlock, NeighborBlock
from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.errors import GeometryError, RemoteProtocolError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.motion.segment import MotionSegment, SegmentTable
from repro.server.dispatcher import UpdateOp
from repro.server.metrics import TickMetrics
from repro.server.session import TickResult

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_MAGIC",
    "FRAME_HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "MSG_HELLO",
    "MSG_LOAD",
    "MSG_REGISTER",
    "MSG_TICK",
    "MSG_SUBMIT",
    "MSG_SHED",
    "MSG_PROMOTE",
    "MSG_CLOSE",
    "MSG_METRICS",
    "MSG_SHUTDOWN",
    "MSG_RESULT",
    "MSG_ERROR",
    "message_name",
    "pack_frame",
    "parse_header",
    "decode_body",
    "read_frame",
    "read_body",
    "write_frame",
]

#: Version 2 added the query-zoo session types: ``ka``/``ja`` wire
#: objects and the ``neighbors``/``pairs``/``aggregate``/``k``
#: tick-result fields.  Version 3 ships a result's answers as packed
#: column blocks (``cb``, in the module docstring) in place of the
#: per-answer ``ai``/``ka`` objects.  Both ends reject a version
#: per-answer ``ai``/``ka`` objects; version 4 a LOAD's segments as one
#: segment table block in place of ``seg`` objects.  Both ends reject a
#: version mismatch outright — the worker is always spawned from the same
#: installation, so there is no skew to negotiate.
PROTOCOL_VERSION = 4
FRAME_MAGIC = b"DQRW"

#: magic, version, message type, 2 pad bytes, body length, body CRC32.
_FRAME = struct.Struct("<4sBB2xII")
FRAME_HEADER_SIZE = _FRAME.size

#: Hard cap on one frame's body; a length field beyond this is treated
#: as corruption, not as a request to allocate gigabytes.
MAX_FRAME_BYTES = 1 << 28

# -- message types ---------------------------------------------------------

MSG_HELLO = 1  # front-end -> worker: build the shard's broker
MSG_LOAD = 2  # front-end -> worker: bulk-load this shard's segment subset
MSG_REGISTER = 3  # front-end -> worker: admit one client sub-session
MSG_TICK = 4  # front-end -> worker: run one master tick, return results
MSG_SUBMIT = 5  # front-end -> worker: enqueue one insert/expire op
MSG_SHED = 6  # front-end -> worker: degrade one sub-session to SPDQ
MSG_PROMOTE = 7  # front-end -> worker: restore one sub-session
MSG_CLOSE = 8  # front-end -> worker: close one sub-session
MSG_METRICS = 9  # front-end -> worker: report shard-level counters
MSG_SHUTDOWN = 10  # front-end -> worker: quiesce and exit
MSG_RESULT = 32  # worker -> front-end: successful reply
MSG_ERROR = 33  # worker -> front-end: the request raised a ReproError

_MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_LOAD: "LOAD",
    MSG_REGISTER: "REGISTER",
    MSG_TICK: "TICK",
    MSG_SUBMIT: "SUBMIT",
    MSG_SHED: "SHED",
    MSG_PROMOTE: "PROMOTE",
    MSG_CLOSE: "CLOSE",
    MSG_METRICS: "METRICS",
    MSG_SHUTDOWN: "SHUTDOWN",
    MSG_RESULT: "RESULT",
    MSG_ERROR: "ERROR",
}


def message_name(msg_type: int) -> str:
    """Human-readable name for a message type (for diagnostics)."""
    return _MESSAGE_NAMES.get(msg_type, f"UNKNOWN({msg_type})")


# -- the typed-object registry ---------------------------------------------

_WIRE_KEY = "!dq"


def _enc_interval(iv: Interval) -> Any:
    return [iv.low, iv.high]


def _dec_interval(v: Any) -> Interval:
    return Interval(float(v[0]), float(v[1]))


def _enc_box(box: Box) -> Any:
    return [[e.low, e.high] for e in box.extents]


def _dec_box(v: Any) -> Box:
    return Box(Interval(float(low), float(high)) for low, high in v)


def _enc_sts(seg: SpaceTimeSegment) -> Any:
    return {
        "t": _enc_interval(seg.time),
        "o": list(seg.origin),
        "v": list(seg.velocity),
    }


def _dec_sts(v: Any) -> SpaceTimeSegment:
    return SpaceTimeSegment(
        _dec_interval(v["t"]),
        tuple(float(x) for x in v["o"]),
        tuple(float(x) for x in v["v"]),
    )


def _enc_motion(rec: MotionSegment) -> Any:
    return {"id": rec.object_id, "seq": rec.seq, "s": _enc_sts(rec.segment)}


def _dec_motion(v: Any) -> MotionSegment:
    return MotionSegment(int(v["id"]), int(v["seq"]), _dec_sts(v["s"]))


def _enc_key_snapshot(ks: KeySnapshot) -> Any:
    return {"t": ks.time, "w": _enc_box(ks.window)}


def _dec_key_snapshot(v: Any) -> KeySnapshot:
    return KeySnapshot(float(v["t"]), _dec_box(v["w"]))


def _enc_trajectory(traj: QueryTrajectory) -> Any:
    return [_enc_key_snapshot(k) for k in traj.key_snapshots]


def _dec_trajectory(v: Any) -> QueryTrajectory:
    return QueryTrajectory([_dec_key_snapshot(k) for k in v])


_BLOCK = struct.Struct("<BBBxI")  # kind, columns, segment dims, rows
_COLUMN = struct.Struct("<c3xI")  # dtype code, length
_BLOCK_KINDS = (AnswerBlock, NeighborBlock, SegmentTable)
_BLOCK_CODES = (b"qqdd", b"qqd", b"qq")
_TABLE = 2


def _enc_block(block: AnswerBlock) -> Any:
    kind, rows = _BLOCK_KINDS.index(type(block)), block.rows
    codes, n = _BLOCK_CODES[kind], len(rows)
    values = [x for column in zip(*rows) for x in column]
    dims = 0
    for record in block.records:
        seg = record.segment
        values += (seg.time.low, seg.time.high, *seg.origin, *seg.velocity)
        dims = seg.dims
    ints = codes.count(b"q") * n
    data = struct.pack(
        f"<BBBxI{'c3xI' * len(codes)}{ints}q{len(values) - ints}d",
        kind, len(codes), dims, n,
        *(x for code in codes for x in (bytes([code]), n)),
        *values,
    )
    return base64.b64encode(data).decode("ascii")


def _enc_table(table: SegmentTable) -> Any:
    n = len(table)
    head = struct.pack(
        "<BBBxIc3xIc3xI", _TABLE, 2, table.segments.dims if n else 0, n, b"q", n, b"q", n
    )
    data = head + kernels.pack_table(table.ids, table.segments)
    return base64.b64encode(data).decode("ascii")


def _dec_block(v: Any) -> Any:
    try:
        data = base64.b64decode(v, validate=True)
        kind, count, dims, n = _BLOCK.unpack_from(data)
        table = [
            _COLUMN.unpack_from(data, _BLOCK.size + i * _COLUMN.size)
            for i in range(count)
        ]
    except (binascii.Error, TypeError, struct.error) as exc:
        raise RemoteProtocolError(f"column block is truncated or not base64: {exc}")
    codes = b"".join(code for code, _ in table)
    bad = [code for code, _ in table if code not in (b"q", b"d")]
    if bad:
        raise RemoteProtocolError(f"unknown column dtype code {bad[0]!r}")
    if any(length != n for _, length in table):
        raise RemoteProtocolError(
            f"column block column lengths {[x for _, x in table]} for {n} rows"
        )
    if kind >= len(_BLOCK_KINDS) or codes != _BLOCK_CODES[kind]:
        raise RemoteProtocolError(f"unknown column block kind {kind} of columns {codes!r}")
    offset, width = _BLOCK.size + count * _COLUMN.size, 2 + 2 * dims
    if len(data) != offset + 8 * n * (count + width) or (n and not dims):
        raise RemoteProtocolError(
            f"column block of {n} rows in {dims} dims is {len(data)} bytes"
        )
    if kind == _TABLE:
        try:
            return SegmentTable(*kernels.unpack_table(data, offset, n, count, dims))
        except GeometryError as exc:
            raise RemoteProtocolError(f"segment table row refused: {exc}")
    ints = codes.count(b"q") * n
    values = struct.unpack_from(f"<{ints}q{n * (count + width) - ints}d", data, offset)
    flat = values[count * n :]
    return _BLOCK_KINDS[kind](
        tuple(zip(*(values[c * n : (c + 1) * n] for c in range(count)))),
        [flat[r * width : (r + 1) * width] for r in range(n)],
        resolved=False,
    ) if n else _BLOCK_KINDS[kind].EMPTY


def _enc_join_answer(ans: JoinAnswer) -> Any:
    return {
        "a": _enc_motion(ans.a),
        "b": _enc_motion(ans.b),
        "iv": _enc_interval(ans.interval),
    }


def _dec_join_answer(v: Any) -> JoinAnswer:
    return JoinAnswer(
        _dec_motion(v["a"]), _dec_motion(v["b"]), _dec_interval(v["iv"])
    )


def _block_field(v: Any, kind: type) -> AnswerBlock:
    """A tick result's block field; an absent one is the empty block."""
    block = kind.EMPTY if v is None else _from_wire(v)
    if type(block) is not kind:
        raise RemoteProtocolError(f"a {kind.__name__} field holds {block!r}")
    return block


def _enc_tick_result(r: TickResult) -> Any:
    # an empty block is left out: most frames deliver nothing
    blocks = {
        name: _to_wire(block)
        for name, block in (
            ("items", r.items),
            ("prefetched", r.prefetched),
            ("neighbors", r.neighbors),
        )
        if block.rows
    }
    return {
        "index": r.index,
        "start": r.start,
        "end": r.end,
        "mode": r.mode,
        **blocks,
        "pairs": [_enc_join_answer(p) for p in r.pairs],
        "aggregate": [[t, c] for t, c in r.aggregate],
        "k": r.k,
        "degraded": r.degraded,
        "covers_until": r.covers_until,
    }


def _dec_tick_result(v: Any) -> TickResult:
    covers = v.get("covers_until")
    return TickResult(
        index=int(v["index"]),
        start=float(v["start"]),
        end=float(v["end"]),
        mode=str(v["mode"]),
        items=_block_field(v.get("items"), AnswerBlock),
        prefetched=_block_field(v.get("prefetched"), AnswerBlock),
        neighbors=_block_field(v.get("neighbors"), NeighborBlock),
        pairs=tuple(_dec_join_answer(p) for p in v.get("pairs", ())),
        aggregate=tuple(
            (float(t), int(c)) for t, c in v.get("aggregate", ())
        ),
        k=int(v.get("k", 0)),
        degraded=bool(v["degraded"]),
        covers_until=None if covers is None else float(covers),
    )


def _enc_tick_metrics(tm: TickMetrics) -> Any:
    return {f.name: getattr(tm, f.name) for f in _dataclass_fields(tm)}


def _dec_tick_metrics(v: Any) -> TickMetrics:
    return TickMetrics(**v)


def _enc_update_op(op: UpdateOp) -> Any:
    return {"time": op.time, "kind": op.kind, "seg": _enc_motion(op.segment)}


def _dec_update_op(v: Any) -> UpdateOp:
    return UpdateOp(float(v["time"]), str(v["kind"]), _dec_motion(v["seg"]))


_BY_TYPE: Dict[type, Tuple[str, Any]] = {
    Interval: ("iv", _enc_interval),
    Box: ("box", _enc_box),
    SpaceTimeSegment: ("sts", _enc_sts),
    MotionSegment: ("seg", _enc_motion),
    KeySnapshot: ("ks", _enc_key_snapshot),
    QueryTrajectory: ("traj", _enc_trajectory),
    AnswerBlock: ("cb", _enc_block),
    NeighborBlock: ("cb", _enc_block),
    SegmentTable: ("cb", _enc_table),
    JoinAnswer: ("ja", _enc_join_answer),
    TickResult: ("tr", _enc_tick_result),
    TickMetrics: ("tm", _enc_tick_metrics),
    UpdateOp: ("op", _enc_update_op),
}

_BY_TAG: Dict[str, Any] = {
    "iv": _dec_interval,
    "box": _dec_box,
    "sts": _dec_sts,
    "seg": _dec_motion,
    "ks": _dec_key_snapshot,
    "traj": _dec_trajectory,
    "cb": _dec_block,
    "ja": _dec_join_answer,
    "tr": _dec_tick_result,
    "tm": _dec_tick_metrics,
    "op": _dec_update_op,
}


def _to_wire(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    entry = _BY_TYPE.get(type(value))
    if entry is not None:
        tag, encode = entry
        return {_WIRE_KEY: tag, "v": encode(value)}
    if isinstance(value, (list, tuple)):
        return [_to_wire(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _to_wire(v) for k, v in value.items()}
    raise RemoteProtocolError(
        f"cannot encode {type(value).__name__} on the wire; "
        "register it in the protocol's typed-object registry"
    )


def _from_wire(value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get(_WIRE_KEY)
        if tag is not None:
            decode = _BY_TAG.get(tag)
            if decode is None:
                raise RemoteProtocolError(f"unknown wire-object tag {tag!r}")
            return decode(value["v"])
        return {k: _from_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_wire(v) for v in value]
    return value


# -- framing ---------------------------------------------------------------


def pack_frame(msg_type: int, payload: Any) -> bytes:
    """Serialise one message into its framed byte representation."""
    body = json.dumps(
        _to_wire(payload), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"{message_name(msg_type)} body of {len(body)} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte frame cap"
        )
    header = _FRAME.pack(
        FRAME_MAGIC,
        PROTOCOL_VERSION,
        msg_type,
        len(body),
        zlib.crc32(body) & 0xFFFFFFFF,
    )
    return header + body


def parse_header(raw: bytes) -> Tuple[int, int, int]:
    """Validate a frame header; returns ``(msg_type, length, crc)``."""
    if len(raw) != FRAME_HEADER_SIZE:
        raise RemoteProtocolError(
            f"frame header is {len(raw)} bytes, expected {FRAME_HEADER_SIZE}"
        )
    magic, version, msg_type, length, crc = _FRAME.unpack(raw)
    if magic != FRAME_MAGIC:
        raise RemoteProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise RemoteProtocolError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return msg_type, length, crc


def decode_body(body: bytes, crc: int) -> Any:
    """CRC-check and decode one frame body into its payload."""
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise RemoteProtocolError("frame body failed its CRC32 check")
    try:
        raw = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"frame body is not valid JSON: {exc}")
    return _from_wire(raw)


def read_frame(fp: BinaryIO) -> Optional[Tuple[int, Any]]:
    """Read one frame from a blocking binary stream.

    Returns ``(msg_type, payload)``, or ``None`` on a clean EOF at a
    frame boundary (the peer closed the pipe).  EOF *inside* a frame is
    corruption and raises :class:`~repro.errors.RemoteProtocolError`.
    """
    frame = read_body(fp)
    if frame is None:
        return None
    msg_type, body, crc = frame
    return msg_type, decode_body(body, crc)


def read_body(fp: BinaryIO) -> Optional[Tuple[int, bytes, int]]:
    """:func:`read_frame` short of :func:`decode_body`."""
    header = _read_exactly(fp, FRAME_HEADER_SIZE, allow_eof=True)
    if header is None:
        return None
    msg_type, length, crc = parse_header(header)
    return msg_type, _read_exactly(fp, length, allow_eof=False), crc


def _read_exactly(
    fp: BinaryIO, count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = fp.read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise RemoteProtocolError(
                f"stream ended {remaining} bytes short of a "
                f"{count}-byte frame section"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(fp: BinaryIO, msg_type: int, payload: Any) -> None:
    """Frame and write one message, flushing so the peer can react."""
    fp.write(pack_frame(msg_type, payload))
    fp.flush()
