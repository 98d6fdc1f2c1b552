"""The shared-scan scheduler: one physical read per page per tick."""

import pytest

from repro.errors import ServerError
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server import QueryBroker, ServerConfig
from repro.server.clock import SimulatedClock
from repro.server.scheduler import SharedScanScheduler
from repro.server.session import PDQSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector


def make_sessions(index, trajectories):
    return [
        PDQSession(f"c{i}", index, t, queue_depth=100)
        for i, t in enumerate(trajectories)
    ]


def frontier_pages(session, tick):
    """The pages a (single-tree) session demands for ``tick``."""
    return [p for _, pages in session.frontier_demand(tick) for p in pages]


class TestBatchPhase:
    def test_duplicate_demand_is_read_once(self, build_native, fleet):
        index = build_native()
        sessions = make_sessions(index, fleet(4, mode="identical"))
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()

        demand = [frontier_pages(s, tick) for s in sessions]
        assert all(demand[0] == d for d in demand)  # identical frontiers
        assert demand[0]  # the root, at least

        reads_before = index.tree.disk.stats.reads
        stats = scheduler.begin_tick(sessions, tick)
        physical = index.tree.disk.stats.reads - reads_before

        assert stats.demanded == 4 * len(demand[0])
        assert stats.unique_pages == len(demand[0])
        assert stats.fetched == physical == len(demand[0])
        assert stats.piggybacked == stats.demanded - stats.fetched
        scheduler.end_tick()

    def test_batched_pages_are_pinned_until_end_tick(self, build_native, fleet):
        index = build_native()
        sessions = make_sessions(index, fleet(2, mode="identical"))
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()
        scheduler.begin_tick(sessions, tick)
        assert scheduler.pinned_pages
        scheduler.end_tick()
        assert not scheduler.pinned_pages

    def test_drain_hits_the_buffer(self, build_native, fleet):
        index = build_native()
        (trajectory,) = fleet(1)
        session = PDQSession("c0", index, trajectory, queue_depth=100)
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()
        frontier = frontier_pages(session, tick)
        scheduler.begin_tick([session], tick)
        reads_before = index.tree.disk.stats.reads
        session.serve(tick)
        demanded_again = index.tree.disk.stats.reads - reads_before
        scheduler.end_tick()
        # Every batched frontier page was a buffer hit during the drain;
        # only pages first *discovered* mid-tick cost new physical reads.
        assert demanded_again <= max(
            0, session.engine.cost.internal_reads
            + session.engine.cost.leaf_reads - len(frontier)
        )

    def test_batch_read_failure_is_left_to_the_engine(
        self, build_native, fleet
    ):
        index = build_native()
        (trajectory,) = fleet(1)
        session = PDQSession("c0", index, trajectory, queue_depth=100)
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()
        frontier = frontier_pages(session, tick)
        assert frontier
        # The default disk has no retry policy, so a single scripted
        # fault fails the batch read; the engine's own load during the
        # drain then succeeds.
        injector = FaultInjector()
        injector.script_read_fault(frontier[0], times=1)
        index.tree.disk.set_faults(injector)
        stats = scheduler.begin_tick([session], tick)
        assert stats.failed == 1
        result = session.serve(tick)
        scheduler.end_tick()
        assert result is not None
        assert not getattr(session.engine, "degraded", False)


class TestTickLifecycle:
    def test_double_begin_raises(self, build_native, fleet):
        index = build_native()
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock().next_tick()
        scheduler.begin_tick([], tick)
        with pytest.raises(ServerError):
            scheduler.begin_tick([], tick)

    def test_end_without_begin_raises(self, build_native):
        scheduler = SharedScanScheduler(build_native().tree)
        with pytest.raises(ServerError):
            scheduler.end_tick()

    def test_reuses_existing_buffer_pool(self, build_native):
        index = build_native()
        first = SharedScanScheduler(index.tree)
        second = SharedScanScheduler(index.tree)
        assert first.pool is second.pool


class CountingPool(BufferPool):
    """A pool that says what pinning examined and what each tick
    admitted and touched."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.examined = 0
        self.admitted = []
        self.touched = set()

    def get(self, page_id):
        self.touched.add(page_id)
        return super().get(page_id)

    def put(self, page_id, payload):
        if page_id not in self:
            self.admitted.append(page_id)
        super().put(page_id, payload)

    def pin(self, page_id):
        self.examined += 1
        super().pin(page_id)

    def pin_all(self):
        self.examined += len(self)
        super().pin_all()

    def new_tick(self):
        self.examined = 0
        self.admitted = []
        self.touched = set()


def pooled(index_cls, segments, capacity, page_size):
    """A bulk-loaded index over a disk with a :class:`CountingPool`."""
    pool = CountingPool(capacity)
    index = index_cls(
        dims=2, disk=DiskManager(buffer_pool=pool), page_size=page_size
    )
    index.bulk_load(segments)
    return index, pool


def pdq_broker(index, trajectories):
    broker = QueryBroker(
        index,
        clock=SimulatedClock(start=1.0, period=0.1),
        config=ServerConfig(queue_depth=1000),
    )
    for i, trajectory in enumerate(trajectories):
        broker.register("pdq", f"c{i}", trajectory=trajectory)
    return broker


class TestPinning:
    """``pin_resident`` after every session costs O(pool + admitted) a
    tick, not O(sessions x pool), and pins exactly what a full re-pin
    would."""

    SESSIONS, TICKS = 64, 12

    def _serve(self, broker, pools):
        """Run the ticks, checking every ``pin_resident`` call."""
        scheduler = broker.scheduler
        pin_resident = scheduler.pin_resident
        examined = [0]

        def checked():
            before = sum(p.examined for p in pools())
            pin_resident()
            examined[0] += sum(p.examined for p in pools()) - before
            for pool in pools():
                assert pool.pinned == frozenset(pool.resident_pages())

        scheduler.pin_resident = checked
        for _ in range(self.TICKS):
            for pool in pools():
                pool.new_tick()
            examined[0] = 0
            broker.run_tick()
            resident = sum(len(p) for p in pools())
            admitted = sum(len(p.admitted) for p in pools())
            assert examined[0] <= resident + admitted + self.SESSIONS

    def test_native_only_warm(self, tiny_segments, fleet):
        index, pool = pooled(NativeSpaceIndex, tiny_segments, 2048, 256)
        for page_id in index.tree.disk.page_ids():
            index.tree.load_node(page_id)
        assert len(pool) >= 500  # a full re-pin examines 64 x that a tick
        broker = pdq_broker(
            index, fleet(self.SESSIONS, mode="independent", duration=3.0)
        )
        self._serve(broker, lambda: [pool])

    def test_native_only_cold_and_too_small(self, tiny_segments, fleet):
        # admissions and evictions between the calls: what was admitted
        # and evicted again before the next call must not be pinned
        index, pool = pooled(NativeSpaceIndex, tiny_segments, 48, 256)
        broker = pdq_broker(
            index, fleet(self.SESSIONS, mode="independent", duration=3.0)
        )
        self._serve(broker, lambda: [pool])
        assert pool.stats.evictions

    def test_dual_pool_adopted_mid_tick(self, tiny_segments, fleet):
        native, pool = pooled(NativeSpaceIndex, tiny_segments, 2048, 256)
        dual, dual_pool = pooled(DualTimeIndex, tiny_segments, 2048, 256)
        for index in (native, dual):
            for page_id in index.tree.disk.page_ids():
                index.tree.load_node(page_id)
        broker = QueryBroker(
            native,
            dual=dual,
            clock=SimulatedClock(start=1.0, period=0.1),
            config=ServerConfig(queue_depth=1000),
        )
        # a scheduler that has not met the dual tree: its pool is
        # adopted by the first batch phase that hears of it
        broker.scheduler = SharedScanScheduler(native.tree)
        trajectories = fleet(self.SESSIONS, mode="independent", duration=3.0)
        for i, trajectory in enumerate(trajectories):
            kind = "pdq" if i % 2 else "npdq"
            broker.register(kind, f"c{i}", trajectory=trajectory)
        self._serve(broker, lambda: [pool, dual_pool])
        assert any(t is dual.tree for t in broker.scheduler.trees)


class TestKnownPinningDefects:
    """What the pins should guarantee and do not yet.  Fixing either
    moves the benchmark's read and eviction counts, so each is a
    follow-up with re-baselined numbers; until then the intended
    invariant is written down here."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a page fetched mid-drain is unpinned until that drain "
        "ends: at capacity a session evicts its own earlier fetch and a "
        "later session of the tick reads it again",
    )
    def test_one_physical_read_per_page_per_tick(self, tiny_segments, fleet):
        index, pool = pooled(NativeSpaceIndex, tiny_segments, 4, 512)
        broker = pdq_broker(
            index, fleet(32, mode="independent", duration=7.0)
        )
        twice = 0
        for _ in range(60):
            pool.new_tick()
            broker.run_tick()
            twice += len(pool.admitted) - len(set(pool.admitted))
        assert twice == 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="put() grows the pool when every resident page is pinned "
        "and nothing shrinks it once the pins are released",
    )
    def test_pool_returns_to_capacity(self, tiny_segments, fleet):
        index, pool = pooled(NativeSpaceIndex, tiny_segments, 64, 512)
        broker = pdq_broker(
            index, fleet(32, mode="independent", duration=7.0)
        )
        light_ticks = 0
        for _ in range(60):
            pool.new_tick()
            broker.run_tick()
            if len(pool.touched) <= pool.capacity:
                light_ticks += 1
                assert len(pool) <= pool.capacity
        assert light_ticks  # the invariant was put to the test
