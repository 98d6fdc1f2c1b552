"""Shard worker: one process, one index shard, one framed pipe.

Run as ``python -m repro.server.remote.worker``.  The worker reads
framed requests (see :mod:`repro.server.remote.protocol`) on stdin and
writes one framed reply per request on stdout; stderr stays free for
tracebacks.  It owns one :class:`~repro.server.shard.IndexShard` — the
very backend the in-process front-end drives directly: a native and
(optionally) dual-time index with their own buffer pools and the leaf
:class:`~repro.server.broker.QueryBroker` serving them — and is driven
entirely by its front-end: the worker's clock never self-advances,
every tick boundary arrives over the wire, so K workers replay exactly
the lockstep schedule the in-process
:class:`~repro.server.shard.MultiplexBroker` would run.

The worker is deliberately *stateless across its own lifetime*: every
mutation it holds (loaded segments, registrations, submitted update
ops, shed/promote transitions, served ticks) arrived as a message, so
the front-end can rebuild a SIGKILL'd worker by replaying its message
journal against a fresh process — the respawn path leans on this.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, BinaryIO, Dict, Optional

from repro.errors import RemoteProtocolError, ReproError
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import SegmentTable
from repro.server.broker import ServerConfig
from repro.server.clock import SimulatedClock, Tick
from repro.server.kinds import KINDS, register_params
from repro.server.remote import protocol as proto
from repro.server.shard import IndexShard

__all__ = ["ShardWorker", "serve", "main"]


def _decode_config(payload: Any) -> ServerConfig:
    """The HELLO config, field for field: both ends must serve under the
    same :class:`ServerConfig`, so a key this worker does not know, or
    one it would have to default, refuses the HELLO — as does a value of
    the wrong shape (a protocol error the worker survives, never a bare
    ``TypeError`` out of :func:`serve`)."""
    try:
        fields = dict(payload)
        known = {f.name for f in dataclasses.fields(ServerConfig)}
        unknown = sorted(set(fields) - known)
        missing = sorted(known - set(fields))
        if unknown or missing:
            raise RemoteProtocolError(
                "HELLO config does not match this worker's ServerConfig: "
                f"unknown fields {unknown}, missing fields {missing}"
            )
        return ServerConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"malformed HELLO config: {exc}") from exc


class ShardWorker:
    """Message-driven owner of one :class:`~repro.server.shard.IndexShard`."""

    def __init__(self) -> None:
        self.shard: Optional[IndexShard] = None

    # -- dispatch ----------------------------------------------------------

    def handle(self, msg_type: int, payload: Any) -> Any:
        """Process one request; returns the RESULT payload or raises."""
        handler = _HANDLERS.get(msg_type)
        if handler is None:
            raise RemoteProtocolError(
                f"worker cannot handle {proto.message_name(msg_type)}"
            )
        if msg_type != proto.MSG_HELLO and self.shard is None:
            if msg_type == proto.MSG_SHUTDOWN:
                return {"expired": 0}
            raise RemoteProtocolError(
                f"{proto.message_name(msg_type)} before HELLO"
            )
        return handler(self, payload)

    # -- request handlers --------------------------------------------------

    def _hello(self, p: Any) -> Any:
        index_kwargs: Dict[str, Any] = {"dims": int(p["dims"])}
        if p.get("page_size") is not None:
            index_kwargs["page_size"] = int(p["page_size"])
        native = NativeSpaceIndex(**index_kwargs)
        dual = DualTimeIndex(**index_kwargs) if p["dual"] else None
        self.shard = IndexShard(
            int(p["shard_id"]),
            native,
            dual,
            SimulatedClock(
                start=float(p["clock_start"]), period=float(p["clock_period"])
            ),
            _decode_config(p["config"]),
        )
        return {
            "shard_id": self.shard.shard_id,
            "native_uncertainty": native.uncertainty,
            "dual_uncertainty": dual.uncertainty if dual is not None else None,
        }

    def _load(self, p: Any) -> Any:
        table = p.get("segments")
        if not isinstance(table, SegmentTable):
            raise RemoteProtocolError("LOAD carries no segment table")
        if len(table):
            # records built here, once, so a tick reads them as in process
            self.shard.load(table.with_records())
        return {"records": self.shard.record_count}

    def _register(self, p: Any) -> Any:
        kind = KINDS.get(p["kind"])
        if kind is None:
            raise RemoteProtocolError(f"unknown session kind {p['kind']!r}")
        self.shard.register(
            kind.name, p["client_id"], register_params(kind, p)
        )
        return {"client_id": p["client_id"], "kind": kind.name}

    def _tick(self, p: Any) -> Any:
        tick = Tick(int(p["index"]), float(p["start"]), float(p["end"]))
        try:
            report = self.shard.run_tick(tick)
        except BaseException:
            # A failed tick delivers nothing: what earlier sessions queued
            # would otherwise ship with the next tick's RESULT frame.
            for session in self.shard.broker.sessions:
                session.poll()
            raise
        quiet = bool(p.get("quiet"))
        results = []
        clients: Dict[str, Any] = {}
        for session in self.shard.broker.sessions:
            polled = session.poll()
            if not quiet:
                results.append([session.client_id, polled])
            clients[session.client_id] = {
                "engine_reads": session.logical_reads,
                "logical_reads": session.metrics.logical_reads,
            }
        return {
            "tick": report.tick,
            "results": results,
            "clients": clients,
            "writer_crashes": report.writer_crashes,
            "updates_deferred": report.updates_deferred,
            "updates_dropped": report.updates_dropped,
        }

    def _submit(self, p: Any) -> Any:
        self.shard.submit(p["op"])
        return {"queued": True}

    def _shed(self, p: Any) -> Any:
        self.shard.broker.session(p["client_id"]).shed(
            float(p["delta"]), int(p["stride"])
        )
        return {}

    def _promote(self, p: Any) -> Any:
        self.shard.broker.session(p["client_id"]).promote()
        return {}

    def _close(self, p: Any) -> Any:
        self.shard.broker.close_client(p["client_id"])
        return {}

    def _metrics(self, p: Any) -> Any:
        return self.shard.report()

    def _shutdown(self, p: Any) -> Any:
        return {"expired": self.shard.quiesce()}


_HANDLERS = {
    proto.MSG_HELLO: ShardWorker._hello,
    proto.MSG_LOAD: ShardWorker._load,
    proto.MSG_REGISTER: ShardWorker._register,
    proto.MSG_TICK: ShardWorker._tick,
    proto.MSG_SUBMIT: ShardWorker._submit,
    proto.MSG_SHED: ShardWorker._shed,
    proto.MSG_PROMOTE: ShardWorker._promote,
    proto.MSG_CLOSE: ShardWorker._close,
    proto.MSG_METRICS: ShardWorker._metrics,
    proto.MSG_SHUTDOWN: ShardWorker._shutdown,
}


def serve(stdin: BinaryIO, stdout: BinaryIO) -> int:
    """Request/reply loop until SHUTDOWN or the front-end closes the pipe.

    A :class:`~repro.errors.ReproError` from a whole frame's body (its
    decoding or its handler) becomes an ERROR reply (the worker survives:
    the failure is the request's, not the process's); anything else
    escapes and kills the worker, which the front-end observes as a crash
    and handles via respawn-and-replay.
    """
    worker = ShardWorker()
    while True:
        frame = proto.read_body(stdin)
        if frame is None:
            return 0
        msg_type, body, crc = frame
        try:
            reply = worker.handle(msg_type, proto.decode_body(body, crc))
        except ReproError as exc:
            proto.write_frame(
                stdout,
                proto.MSG_ERROR,
                {"error": str(exc), "kind": type(exc).__name__},
            )
            continue
        proto.write_frame(stdout, proto.MSG_RESULT, reply)
        if msg_type == proto.MSG_SHUTDOWN:
            return 0


def main() -> int:
    """Entry point for ``python -m repro.server.remote.worker``."""
    return serve(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main())
