"""The wire protocol's one table, read on the real modules.

Each fact of the protocol — a message type's value, name and role, the
worker's handler for it, whether the front-end replays it, a wire
object's tag and codecs — is declared once in
:mod:`repro.server.remote.protocol`.  These tests pin what is derived
from those declarations, so a row that stops agreeing with its users
fails here.
"""

import io

import pytest

from repro.core.query import JoinAnswer, KNNAnswer
from repro.core.results import AnswerBlock, AnswerItem, NeighborBlock
from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.errors import RemoteProtocolError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.motion.segment import MotionSegment, SegmentTable
from repro.server import TickResult, UpdateOp
from repro.server.metrics import TickMetrics
from repro.server.remote import protocol as proto
from repro.server.remote import worker
from repro.server.remote.worker import ShardWorker

from _helpers import block_of, make_segment

Msg, Role = proto.Msg, proto.Role

#: the bytes on the wire: every message type keeps its value
WIRE_VALUES = {
    "HELLO": 1, "LOAD": 2, "REGISTER": 3, "TICK": 4, "SUBMIT": 5,
    "SHED": 6, "PROMOTE": 7, "CLOSE": 8, "METRICS": 9, "SHUTDOWN": 10,
    "RESULT": 32, "ERROR": 33,
}


class TestMessageTable:
    def test_values_are_the_wire_values(self):
        assert {msg.name: msg.value for msg in Msg} == WIRE_VALUES
        assert proto.PROTOCOL_VERSION == 4

    def test_every_member_is_its_module_constant(self):
        for msg in Msg:
            assert getattr(proto, f"MSG_{msg.name}") is msg

    def test_message_name_names_every_type(self):
        for msg in Msg:
            assert proto.message_name(msg) == msg.name
            assert proto.message_name(int(msg)) == msg.name
        assert proto.message_name(99) == "UNKNOWN(99)"
        assert proto.message_name(0) == "UNKNOWN(0)"

    def test_requests_are_every_type_but_the_replies(self):
        assert {msg for msg in Msg if msg.role is Role.REPLY} == {
            Msg.RESULT, Msg.ERROR,
        }
        assert proto.REQUESTS == set(Msg) - {Msg.RESULT, Msg.ERROR}

    def test_replayable_set(self):
        assert proto.REPLAYABLE == {
            Msg.LOAD, Msg.REGISTER, Msg.TICK, Msg.SUBMIT,
            Msg.SHED, Msg.PROMOTE, Msg.CLOSE,
        }
        assert {msg for msg in Msg if msg.role is Role.READ_ONLY} == {
            Msg.METRICS, Msg.SHUTDOWN,
        }

    def test_worker_has_a_handler_for_exactly_the_request_types(self):
        assert set(worker._HANDLERS) == proto.REQUESTS
        for msg, handler in worker._HANDLERS.items():
            assert handler is getattr(ShardWorker, f"_{msg.name.lower()}")

    @pytest.mark.parametrize("msg", [Msg.RESULT, Msg.ERROR, 99])
    def test_worker_refuses_what_is_not_a_request(self, msg):
        with pytest.raises(RemoteProtocolError, match="cannot handle"):
            ShardWorker().handle(msg, {})


def _samples():
    """One value of every wire type."""
    seg = make_segment(7, 2, 1.25, 3.75, (0.125, -2.5), (1.0, 0.5))
    other = make_segment(8, 0, 1.0, 4.0, (0.5, -2.0), (-1.0, 0.0))
    box = Box.from_bounds((0.0, 0.0), (2.0, 2.0))
    key = KeySnapshot(1.0, box)
    pair = JoinAnswer(seg, other, Interval(1.5, 2.0))
    answers = block_of([AnswerItem(seg, Interval(1.25, 2.5))])
    neighbors = block_of([KNNAnswer(other, 0.75)])
    return {
        Interval: Interval(0.1, 0.7),
        Box: box,
        SpaceTimeSegment: seg.segment,
        MotionSegment: seg,
        KeySnapshot: key,
        QueryTrajectory: QueryTrajectory(
            [key, KeySnapshot(2.0, Box.from_bounds((1.0, 1.0), (3.0, 3.0)))]
        ),
        AnswerBlock: answers,
        NeighborBlock: neighbors,
        SegmentTable: SegmentTable.of([seg, other]),
        JoinAnswer: pair,
        TickResult: TickResult(
            index=3, start=1.3, end=1.4, mode="join", items=answers,
            neighbors=neighbors, pairs=(pair,), aggregate=((1.3, 2),), k=1,
        ),
        TickMetrics: TickMetrics(3, 1.3, 1.4, 2, 5, 9, 4, 1, 0, 0.002),
        UpdateOp: UpdateOp(1.5, "insert", seg),
    }


@pytest.mark.parametrize(
    "row", proto.WIRE_OBJECTS, ids=[row[0].__name__ for row in proto.WIRE_OBJECTS]
)
def test_every_wire_row_round_trips(row):
    cls, tag, _, decode = row
    value = _samples()[cls]
    frame = proto.pack_frame(proto.MSG_RESULT, value)
    _, decoded = proto.read_frame(io.BytesIO(frame))
    assert type(decoded) is cls
    assert proto.pack_frame(proto.MSG_RESULT, decoded) == frame
    # a tag shared by several rows (``cb``) decodes with each one's decoder
    assert proto._BY_TAG[tag] is decode


def test_every_type_has_one_row_and_every_tag_decodes():
    types = [cls for cls, _, _, _ in proto.WIRE_OBJECTS]
    assert len(types) == len(set(types)) == len(_samples())
    assert set(proto._BY_TAG) == {tag for _, tag, _, _ in proto.WIRE_OBJECTS}
    assert {cls for cls, tag, _, _ in proto.WIRE_OBJECTS if tag == "cb"} == {
        AnswerBlock, NeighborBlock, SegmentTable,
    }
    with pytest.raises(RemoteProtocolError, match="unknown wire-object tag"):
        proto._from_wire({"!dq": "ai", "v": []})
