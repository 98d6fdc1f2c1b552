"""One routing rule: the population's kernel, the per-update path and the
Box algebra agree.

``ShardRouter.route`` sends a whole population to its shards in one
kernel call; ``ShardRouter.shards_for_segment`` (what an insert or an
expire is routed by) is the batch of one of the same call.  The oracle
is the per-segment Box path the router used before (``box_route`` in
``tests/_helpers.py``): project the segment's bounding box onto the
spatial axes, grow it by the inflation, match it against every closed
cell, and fall back to every shard when no cell matches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import kernels
from repro.server import MultiplexBroker, ShardPlan, ShardRouter
from repro.server.shard import IndexShard

from _helpers import box_buckets, box_route, make_segment

SIDE = 12.0
#: cell faces of every grid below (widths 12/n for n in 1, 2, 3, 4, 6, 8)
FACES = sorted({SIDE * i / n for n in (1, 2, 3, 4, 6, 8) for i in range(n + 1)})

coordinate = st.one_of(
    st.sampled_from(FACES),
    st.floats(-4.0, SIDE + 4.0),  # past the plan's domain on either side
)
speed = st.one_of(st.just(0.0), st.sampled_from([-1.5, -0.5, 0.5, 1.5]), st.floats(-3.0, 3.0))
inflation = st.sampled_from([0.0, -1.0, 0.25, 1.5])


@st.composite
def populations(draw, dims):
    count = draw(st.integers(1, 12))
    out = []
    for i in range(count):
        t0 = draw(st.sampled_from([0.0, 1.0, 2.5]))
        length = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        origin = tuple(draw(coordinate) for _ in range(dims))
        velocity = tuple(draw(speed) for _ in range(dims))
        out.append(make_segment(i, 0, t0, t0 + length, origin, velocity))
    return out


def assert_one_rule(plan, segments, inflate):
    router = ShardRouter(plan)
    buckets = router.route(
        kernels.SegmentBatch.of([s.segment for s in segments]), inflate
    )
    keys = [[segments[row].key for row in rows] for rows in buckets]
    # the same members in the same (population) order as the oracle's
    assert keys == box_buckets(plan, segments, inflate)
    for segment in segments:
        assert router.shards_for_segment(segment, inflate) == box_route(
            plan, segment, inflate
        )


@settings(max_examples=60, deadline=None)
@given(
    shards=st.sampled_from([1, 2, 3, 4, 6, 8]),
    segments=populations(2),
    inflate=inflation,
)
def test_route_matches_box_algebra_2d(shards, segments, inflate):
    assert_one_rule(ShardPlan.grid([0.0, 0.0], [SIDE, SIDE], shards), segments, inflate)


@settings(max_examples=40, deadline=None)
@given(
    shards=st.sampled_from([1, 2, 3, 4, 6, 8]),
    segments=populations(3),
    inflate=inflation,
)
def test_route_matches_box_algebra_3d(shards, segments, inflate):
    plan = ShardPlan.grid([0.0, 0.0, 0.0], [SIDE, SIDE, SIDE], shards)
    assert_one_rule(plan, segments, inflate)


def test_face_touching_and_outside_segments():
    plan = ShardPlan.grid([0.0, 0.0], [SIDE, SIDE], 4)  # faces at x = 6, y = 6
    segments = [
        # a parked point exactly on the centre corner: all four cells
        make_segment(0, 0, 1.0, 1.0, (6.0, 6.0), (0.0, 0.0)),
        # slides along the x = 6 face: both columns, lower row only
        make_segment(1, 0, 0.0, 2.0, (6.0, 1.0), (0.0, 1.0)),
        # ends exactly on the face from the left
        make_segment(2, 0, 0.0, 1.0, (5.0, 1.0), (1.0, 0.0)),
        # wholly outside the plan: every shard
        make_segment(3, 0, 0.0, 1.0, (40.0, 40.0), (1.0, 1.0)),
        # outside, but an inflation reaches the domain's edge
        make_segment(4, 0, 0.0, 1.0, (-1.0, 1.0), (0.0, 0.0)),
    ]
    router = ShardRouter(plan)
    routes = [router.shards_for_segment(s) for s in segments]
    assert routes == [[0, 1, 2, 3], [0, 2], [0, 2], [0, 1, 2, 3], [0, 1, 2, 3]]
    assert router.shards_for_segment(segments[4], inflate=1.0) == [0]
    for inflate in (0.0, 1.0):
        assert_one_rule(plan, segments, inflate)


def test_multiplexed_load_ships_each_bucket_in_population_order(monkeypatch):
    segments = [
        make_segment(i, i % 3, 0.0, 2.0, (11.5 - i, 0.5 * i), (0.25, -0.25))
        for i in range(24)
    ]
    loaded = {}

    def capture(shard, table):
        loaded[shard.shard_id] = [tuple(k) for k in table.ids.tolist()]
        assert [r.key for r in table.records] == loaded[shard.shard_id]

    monkeypatch.setattr(IndexShard, "load", capture)
    broker = MultiplexBroker.over_segments(
        segments, shards=4, bounds=([0.0, 0.0], [SIDE, SIDE])
    )
    oracle = box_buckets(broker.plan, segments, broker._route_inflation)
    assert [loaded.get(i, []) for i in range(4)] == oracle
    assert broker.load(segments) == [len(b) for b in oracle]
