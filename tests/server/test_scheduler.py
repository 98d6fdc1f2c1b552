"""The shared-scan scheduler: one physical read per page per tick."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.workload.observers import observer_fleet


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

        reads_before = index.tree.disk.stats.reads
        stats = scheduler.begin_tick(sessions, tick)
        physical = index.tree.disk.stats.reads - reads_before

        # A session's demand is every page its window expands this tick,
        # loaded by the sweep the batch phase ran.
        demand = [frontier_pages(s, tick) for s in sessions]
        assert all(demand[0] == d for d in demand)  # identical clients
        assert len(demand[0]) > 1  # the root and the pages below it
        assert stats.demanded == 4 * len(demand[0])
        assert stats.unique_pages == len(demand[0])
        assert stats.fetched == physical == len(demand[0])
        assert stats.piggybacked == stats.demanded - stats.fetched
        # The drain reads nothing the batch did not.
        for session in sessions:
            session.serve(tick)
        assert index.tree.disk.stats.reads - reads_before == physical
        scheduler.end_tick()

    def test_batched_pages_are_pinned_until_end_tick(self, build_native, fleet):
        # The pool is held from the batch phase to the end of the tick.
        index = build_native()
        sessions = make_sessions(index, fleet(2, mode="identical"))
        scheduler = SharedScanScheduler(index.tree)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()
        assert not scheduler.pool.held
        scheduler.begin_tick(sessions, tick)
        assert scheduler.pool.held
        assert all(p in scheduler.pool for p in frontier_pages(sessions[0], tick))
        scheduler.end_tick()
        assert not scheduler.pool.held

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
        (trajectory,) = fleet(1)
        tick = SimulatedClock(start=1.0, period=0.1).next_tick()
        twin = PDQSession("twin", build_native(), trajectory, queue_depth=100)
        index = build_native()
        session = PDQSession("c0", index, trajectory, queue_depth=100)
        scheduler = SharedScanScheduler(index.tree)
        # The default disk has no retry policy, so a single scripted
        # fault fails the sweep's read of the root; the engine's own
        # load during the drain then succeeds.
        injector = FaultInjector()
        injector.script_read_fault(index.tree.root_id, times=1)
        index.tree.disk.set_faults(injector)
        stats = scheduler.begin_tick([session], tick)
        assert stats.failed == 1
        assert frontier_pages(session, tick) == []  # nothing was loaded
        result = session.serve(tick)
        scheduler.end_tick()
        assert result is not None
        assert not getattr(session.engine, "degraded", False)
        assert result.items == twin.serve(tick).items


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
    """A pool that says what each tick admitted, and how large it grew
    and whether it was held when it did."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.admitted = []
        self.unheld_puts = 0
        self.peak = 0

    def put(self, page_id, payload):
        if page_id not in self:
            self.admitted.append(page_id)
            self.unheld_puts += not self.held
        super().put(page_id, payload)
        self.peak = max(self.peak, len(self))

    def new_tick(self):
        self.admitted = []
        self.unheld_puts = 0
        self.peak = len(self)


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


class TestHeldTick:
    """A tick holds its pools: nothing is evicted until it ends, so a
    page is read at most once a tick, and the end of the tick brings
    every pool back within its capacity."""

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

    def test_pool_returns_to_capacity(self, tiny_segments, fleet):
        # Held, the pool grows past its capacity mid-tick; the end of
        # the tick evicts it back within capacity.
        index, pool = pooled(NativeSpaceIndex, tiny_segments, 8, 512)
        broker = pdq_broker(
            index, fleet(32, mode="independent", duration=7.0)
        )
        overflowed = 0
        for _ in range(60):
            pool.new_tick()
            broker.run_tick()
            overflowed += pool.peak > pool.capacity
            assert len(pool) <= pool.capacity and not pool.held
        assert overflowed  # the invariant was put to the test
        assert pool.stats.evictions

    def test_dual_pool_adopted_mid_tick(self, tiny_segments, fleet):
        native, pool = pooled(NativeSpaceIndex, tiny_segments, 2048, 256)
        dual, dual_pool = pooled(DualTimeIndex, tiny_segments, 48, 256)
        broker = QueryBroker(
            native,
            dual=dual,
            clock=SimulatedClock(start=1.0, period=0.1),
            config=ServerConfig(queue_depth=1000),
        )
        # a scheduler that has not met the dual tree: its pool is
        # adopted, and held, by the first batch phase that hears of it
        broker.scheduler = scheduler = SharedScanScheduler(native.tree)
        begin_tick = scheduler.begin_tick
        held = []

        def observed(sessions, tick):
            stats = begin_tick(sessions, tick)
            held.append((pool.held, dual_pool.held))
            return stats

        scheduler.begin_tick = observed
        trajectories = fleet(16, mode="independent", duration=3.0)
        for i, trajectory in enumerate(trajectories):
            kind = "pdq" if i % 2 else "npdq"
            broker.register(kind, f"c{i}", trajectory=trajectory)
        for tick in range(12):
            for p in (pool, dual_pool):
                p.new_tick()
            broker.run_tick()
            assert len(dual_pool) <= dual_pool.capacity
            if tick:  # adopted: held from the tick's first read on
                assert dual_pool.unheld_puts == 0
                assert len(dual_pool.admitted) == len(set(dual_pool.admitted))
        assert held == [(True, True)] * 12
        assert any(t is dual.tree for t in scheduler.trees)
        assert not dual_pool.held and dual_pool.stats.evictions


@pytest.fixture(scope="module")
def served_trees(tiny_segments):
    """One bulk-loaded native and dual tree pair, served read-only by
    every example below (each run gives their disks a fresh pool)."""
    trees = tuple(
        index_cls(dims=2, disk=DiskManager(), page_size=512)
        for index_cls in (NativeSpaceIndex, DualTimeIndex)
    )
    for index in trees:
        index.bulk_load(tiny_segments)
    return trees


def serve_held(trees, kinds, trajectories, capacity, ticks=12):
    """Serve a fleet over pools of ``capacity``, checking the hold's
    rules every tick; returns every client's frames."""
    pools = [CountingPool(capacity) for _ in trees]
    for index, pool in zip(trees, pools):
        index.tree.disk.set_buffer_pool(pool)
    native, dual = trees
    broker = QueryBroker(
        native,
        dual=dual,
        clock=SimulatedClock(start=1.0, period=0.1),
        config=ServerConfig(queue_depth=1000),
    )
    sessions = [
        broker.register(kind, f"c{i}", trajectory=trajectory)
        for i, (kind, trajectory) in enumerate(zip(kinds, trajectories))
    ]
    frames = []
    for _ in range(ticks):
        for pool in pools:
            pool.new_tick()
        broker.run_tick()
        for pool in pools:
            assert len(pool.admitted) == len(set(pool.admitted)), "read twice"
            assert len(pool) <= pool.capacity and not pool.held
        frames.append(
            [[(r.mode, tuple(r.items)) for r in s.poll()] for s in sessions]
        )
    return frames


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    kinds=st.lists(st.sampled_from(["pdq", "npdq"]), min_size=4, max_size=32),
    mode=st.sampled_from(["identical", "clustered", "independent"]),
    seed=st.integers(min_value=0, max_value=4),
)
def test_every_page_is_read_at_most_once_a_tick(
    capacity, kinds, mode, seed, tiny_config, served_trees
):
    """Any pool capacity, any PDQ/NPDQ mix: no page is admitted twice in
    a tick, every pool is within capacity when the tick ends, and the
    answers are those of a pool that never evicts."""
    trajectories = observer_fleet(
        tiny_config, len(kinds), mode=mode, duration=1.5, start_time=1.0,
        seed=seed,
    )
    small = serve_held(served_trees, kinds, trajectories, capacity)
    assert small == serve_held(served_trees, kinds, trajectories, 1024)
