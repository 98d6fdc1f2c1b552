"""The pipe backend: shard workers in their own processes.

:class:`RemoteMultiplexBroker` is :class:`~repro.server.shard.MultiplexBroker`
over spawned workers: the same front-end — grid plan, kind-table
routing, master tick, merge phase, shed/promote policy, report — whose
:class:`~repro.server.shard.ShardBackend` is a ``python -m
repro.server.remote.worker`` process behind a framed pipe.  What this
module adds is the transport: a private asyncio event loop on which the
front-end's backend calls run *concurrently* across the K workers
(tick N is broadcast to all of them and barriers on every reply before
the merge phase runs), the per-worker journal, and respawn-and-replay.

**Determinism.**  The master clock is the only clock: workers receive
explicit tick boundaries, evaluate them with the same engines on the
same routed state, and the barrier re-serialises their replies into
shard order before merging — so the answer stream is byte-identical to
the in-process backend's on the same seed, whatever order replies
arrive in.

**Robustness.**  Every request carries a timeout; a timeout, pipe EOF
or CRC failure marks the worker dead.  Each worker has a journal of
every state-bearing message it has acknowledged (HELLO config, LOAD,
REGISTER, SUBMIT, SHED/PROMOTE/CLOSE, TICK boundaries); recovery kills
the remains, spawns a fresh process, and replays the journal — ticks
replayed ``quiet`` so the fast-forward produces no duplicate results —
then re-issues the in-flight request.  Because workers hold no state
that did not arrive as a message, the rebuilt worker is bit-equivalent
to the lost one and the answer stream is unperturbed.  Retries are
bounded; per-shard :class:`~repro.server.metrics.ShardHealth` counts
round-trips, timeouts, crashes and restarts.

Two limits come with the pipe: registration parameters must be
JSON-encodable (no fault budgets across it), and auto clients register
by *trajectory* — the worker rebuilds the centre path locally, since a
path callable cannot cross a process boundary.
"""

from __future__ import annotations

import asyncio
import os
import sys
from dataclasses import asdict
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro
from repro.errors import RemoteWorkerError
from repro.motion.segment import SegmentTable
from repro.server.broker import ServerConfig
from repro.server.clock import SimulatedClock, Tick
from repro.server.dispatcher import UpdateOp
from repro.server.kinds import kind_named, register_payload
from repro.server.metrics import ClientMetrics, ShardHealth
from repro.server.remote import protocol as proto
from repro.server.session import TickResult
from repro.server.shard import (
    MultiplexBroker,
    ShardPlan,
    ShardTick,
    leaf_config,
)
from repro.storage.constants import PAGE_SIZE

# The benchmark's outside-in tracer times the planner and the merge
# through a module global of every tier's module; this tier plans in
# BrokerCore and merges in MultiplexBroker.
from repro.server.planner import plan_query  # noqa: F401
from repro.server.shard import merge_results  # noqa: F401

__all__ = ["RemoteMultiplexBroker", "RemoteSubSession"]


class _TransportError(RemoteWorkerError):
    """A worker stopped answering (timeout, EOF, torn frame) — retryable."""


class RemoteSubSession:
    """Front-end proxy for one client's sub-session on one worker.

    Quacks like the shard-side :class:`~repro.server.session.ClientSession`
    as far as :class:`~repro.server.shard.MuxClientSession` needs: it
    buffers the results the worker shipped for this client, mirrors the
    worker's per-client counters, and turns shed/promote/close into
    commands queued for delivery ahead of the next broadcast (matching
    the in-process timing: transitions decided during tick N's merge
    take effect before tick N+1 everywhere).
    """

    def __init__(self, handle: "_WorkerHandle", client_id: str, kind: str):
        self._handle = handle
        self.client_id = client_id
        self.kind = kind
        self.metrics = ClientMetrics(client_id)
        self._pending: List[TickResult] = []
        self._engine_reads = 0

    @property
    def logical_reads(self) -> int:
        """Engine-level logical reads, mirrored from the worker."""
        return self._engine_reads

    def poll(self) -> List[TickResult]:
        out, self._pending = self._pending, []
        return out

    def _command(self, msg_type: int, **fields: Any) -> None:
        self._handle.pending.append(
            (msg_type, {"client_id": self.client_id, **fields})
        )

    def shed(self, delta: float, stride: int) -> None:
        self._command(proto.MSG_SHED, delta=delta, stride=stride)

    def promote(self) -> None:
        self._command(proto.MSG_PROMOTE)

    def close(self) -> None:
        self._command(proto.MSG_CLOSE)

    def _absorb(self, results: Sequence[TickResult], stats: Optional[Dict]):
        self._pending.extend(results)
        if stats is None:
            return
        self._engine_reads = int(stats["engine_reads"])
        self.metrics.logical_reads = int(stats["logical_reads"])


class _WorkerHandle:
    """One spawned worker as a :class:`~repro.server.shard.ShardBackend`:
    process, journal, health, client proxies.  Every call is a request
    through the owning front-end's retrying transport, so the replies
    are awaitables its ``_gather`` resolves."""

    def __init__(self, owner: "RemoteMultiplexBroker", shard_id: int):
        self._owner = owner
        self.shard_id = shard_id
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.health = ShardHealth(shard_id)
        self.hello_request: Dict[str, Any] = {}
        self.hello: Dict[str, Any] = {}
        self.journal: List[Tuple[int, Any]] = []
        self.pending: List[Tuple[int, Any]] = []
        self.subs: Dict[str, RemoteSubSession] = {}

    @property
    def has_dual(self) -> bool:
        return bool(self.hello_request["dual"])

    @property
    def uncertainty(self) -> float:
        return max(
            float(self.hello[key])
            for key in ("native_uncertainty", "dual_uncertainty")
            if self.hello[key] is not None
        )

    @property
    def dims(self) -> int:
        return int(self.hello_request["dims"])

    @property
    def page_size(self) -> int:
        page_size = self.hello_request["page_size"]
        return PAGE_SIZE if page_size is None else int(page_size)

    def _request(self, msg_type: int, payload: Any) -> Any:
        return self._owner._request(self, msg_type, payload)

    async def _flush_pending(self) -> None:
        pending, self.pending = self.pending, []
        for msg_type, payload in pending:
            await self._request(msg_type, payload)

    async def load(self, table: SegmentTable) -> None:
        await self._request(proto.MSG_LOAD, {"segments": table})

    async def register(
        self, kind: str, client_id: str, params: Dict[str, Any]
    ) -> RemoteSubSession:
        payload = register_payload(kind_named(kind), client_id, params)
        # Installed ahead of the request: past the await another shard's
        # reply may be running, and a proxy whose registration failed
        # is never shipped a result.
        sub = self.subs[client_id] = RemoteSubSession(self, client_id, kind)
        await self._request(proto.MSG_REGISTER, payload)
        return sub

    async def submit(self, op: UpdateOp) -> None:
        await self._request(proto.MSG_SUBMIT, {"op": op})

    async def run_tick(self, tick: Tick) -> ShardTick:
        if self._owner.kill_plan.get(tick.index) == self.shard_id:
            # Chaos hook: SIGKILL at the start of the tick; recovery is
            # the ordinary respawn path.
            del self._owner.kill_plan[tick.index]
            if self.proc is not None and self.proc.returncode is None:
                self.proc.kill()
        await self._flush_pending()
        reply = await self._request(
            proto.MSG_TICK,
            {
                "index": tick.index,
                "start": tick.start,
                "end": tick.end,
                "quiet": False,
            },
        )
        for client_id, results in reply["results"]:
            sub = self.subs.get(client_id)
            if sub is not None:
                sub._absorb(results, reply["clients"].get(client_id))
        return ShardTick(
            reply["tick"],
            reply["writer_crashes"],
            reply["updates_deferred"],
            reply["updates_dropped"],
        )

    async def quiesce(self) -> int:
        await self._flush_pending()
        reply = await self._request(proto.MSG_SHUTDOWN, {})
        return int(reply["expired"])

    async def report(self) -> Dict[str, Any]:
        return await self._request(proto.MSG_METRICS, {})


class RemoteMultiplexBroker(MultiplexBroker):
    """The front-end over K spawned shard workers.

    Owns what the pipe needs and the in-process tier does not: the
    event loop, the worker processes, each worker's journal with
    respawn-and-replay, and ``kill_plan``.
    """

    def __init__(
        self,
        plan: ShardPlan,
        dims: int = 2,
        dual: bool = True,
        clock: Optional[SimulatedClock] = None,
        config: Optional[ServerConfig] = None,
        page_size: Optional[int] = None,
        request_timeout: float = 60.0,
        max_restarts: int = 3,
        kill_plan: Optional[Dict[int, int]] = None,
    ):
        clock = clock or SimulatedClock()
        config = config or ServerConfig()
        self.request_timeout = float(request_timeout)
        self.max_restarts = int(max_restarts)
        #: tick index -> shard id; that worker is SIGKILLed at the start
        #: of the tick (chaos hook for ``--kill-worker`` and tests).
        self.kill_plan = dict(kill_plan or {})
        self._loop = asyncio.new_event_loop()
        self._closed = False
        self.workers = [_WorkerHandle(self, i) for i in range(plan.shard_count)]
        wire_config = asdict(leaf_config(config))
        for handle in self.workers:
            handle.hello_request = {
                "shard_id": handle.shard_id,
                "dims": dims,
                "page_size": page_size,
                "dual": dual,
                "clock_start": clock.start,
                "clock_period": clock.period,
                "config": wire_config,
            }
        try:
            self._gather(partial(self._hello, h) for h in self.workers)
        except BaseException:
            self.close()
            raise
        self._front(plan, self.workers, clock, config)
        for handle in self.workers:
            self.metrics.shard_health[handle.shard_id] = handle.health

    @classmethod
    def _empty(
        cls, plan, dims, dual, page_size, **kwargs
    ) -> "RemoteMultiplexBroker":
        return cls(plan, dims=dims, dual=dual, page_size=page_size, **kwargs)

    def _gather(self, calls: Iterable[Callable[[], Any]]) -> List[Any]:
        """Run the backend calls concurrently on the private loop."""

        async def _all() -> List[Any]:
            return list(await asyncio.gather(*(call() for call in calls)))

        return self._run(_all())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Tear down every worker process and the private event loop."""
        if self._closed:
            return
        self._closed = True

        async def _teardown() -> None:
            for handle in self.workers:
                proc = handle.proc
                handle.proc = None
                if proc is None:
                    continue
                if proc.returncode is None:
                    if proc.stdin is not None:
                        proc.stdin.close()
                    try:
                        await asyncio.wait_for(proc.wait(), 5.0)
                    except asyncio.TimeoutError:
                        proc.kill()
                        await proc.wait()

        try:
            self._loop.run_until_complete(_teardown())
        finally:
            self._loop.close()

    def __enter__(self) -> "RemoteMultiplexBroker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _run(self, coro: Any) -> Any:
        if self._closed:
            raise RemoteWorkerError("the remote broker is closed")
        return self._loop.run_until_complete(coro)

    async def _hello(self, handle: _WorkerHandle) -> None:
        await self._launch(handle)
        handle.hello = await self._roundtrip(
            handle, proto.MSG_HELLO, handle.hello_request
        )

    async def _launch(self, handle: _WorkerHandle) -> None:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        handle.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.server.remote.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )

    async def _request(
        self, handle: _WorkerHandle, msg_type: int, payload: Any
    ) -> Any:
        """One request with bounded retry; each retry is a respawn.

        Resending to a half-processed worker is unsafe (it may have
        applied the mutation before dying mid-reply), so the retry unit
        is the full deterministic rebuild: kill, respawn, replay the
        journal, then re-issue this request against known-good state.
        """
        attempts = 0
        while True:
            try:
                reply = await self._roundtrip(handle, msg_type, payload)
            except _TransportError:
                attempts += 1
                if attempts > self.max_restarts:
                    raise RemoteWorkerError(
                        f"shard {handle.shard_id} worker failed "
                        f"{attempts} times; giving up"
                    )
                await self._respawn(handle)
                continue
            if msg_type in proto.REPLAYABLE:
                handle.journal.append((msg_type, payload))
            return reply

    async def _roundtrip(
        self, handle: _WorkerHandle, msg_type: int, payload: Any
    ) -> Any:
        proc = handle.proc
        if proc is None or proc.returncode is not None:
            handle.health.crashes += 1
            raise _TransportError(
                f"shard {handle.shard_id} worker is not running"
            )
        handle.health.requests += 1
        started = self._loop.time()
        try:
            proc.stdin.write(proto.pack_frame(msg_type, payload))
            await proc.stdin.drain()
            header = await asyncio.wait_for(
                proc.stdout.readexactly(proto.FRAME_HEADER_SIZE),
                self.request_timeout,
            )
            reply_type, length, crc = proto.parse_header(header)
            body = await asyncio.wait_for(
                proc.stdout.readexactly(length), self.request_timeout
            )
        except asyncio.TimeoutError:
            handle.health.timeouts += 1
            raise _TransportError(
                f"shard {handle.shard_id} {proto.message_name(msg_type)} "
                f"timed out after {self.request_timeout}s"
            )
        except (
            asyncio.IncompleteReadError,
            BrokenPipeError,
            ConnectionResetError,
        ) as exc:
            handle.health.crashes += 1
            raise _TransportError(
                f"shard {handle.shard_id} worker died mid-"
                f"{proto.message_name(msg_type)} ({type(exc).__name__})"
            )
        reply = proto.decode_body(body, crc)
        elapsed = self._loop.time() - started
        handle.health.replies += 1
        handle.health.last_latency = elapsed
        handle.health.total_latency += elapsed
        if reply_type == proto.MSG_ERROR:
            # An application-level failure is deterministic: the same
            # request against replayed state fails the same way, so it
            # is surfaced, never retried.
            raise RemoteWorkerError(
                f"shard {handle.shard_id} {proto.message_name(msg_type)} "
                f"failed: {reply.get('kind')}: {reply.get('error')}"
            )
        return reply

    async def _respawn(self, handle: _WorkerHandle) -> None:
        """Deterministic respawn-and-replay after a worker loss."""
        proc = handle.proc
        if proc is not None:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            handle.proc = None
        handle.health.restarts += 1
        await self._launch(handle)
        await self._roundtrip(handle, proto.MSG_HELLO, handle.hello_request)
        for msg_type, payload in handle.journal:
            if msg_type == proto.MSG_TICK:
                payload = dict(payload)
                payload["quiet"] = True
            await self._roundtrip(handle, msg_type, payload)

