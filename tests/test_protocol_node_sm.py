"""Unit tests for the node-side protocol state machine."""

import pytest

from repro.errors import ProtocolError
from repro.protocol import (
    ACKNOWLEDGED,
    ARBITRATE,
    READY,
    REPLY,
    Ack,
    NodeStateMachine,
    Query,
    QueryRep,
    ReadSensor,
    Rn16Reply,
    SensorReport,
    SetBlf,
    append_crc16,
)
from repro.protocol.packets import READ_SENSOR


def make_node(node_id=1, seed=0):
    return NodeStateMachine(
        node_id=node_id, read_sensor=lambda channel: 25.0, seed=seed
    )


def drive_to_reply(node, q=2):
    """Advance the round until the node replies; return its RN16 reply."""
    reply = node.handle(Query(q=q))
    while reply is None:
        reply = node.handle(QueryRep())
        if node.state == READY:
            raise AssertionError("node left the round without replying")
    return reply


class TestSlotSelection:
    def test_q0_replies_immediately(self):
        node = make_node()
        reply = node.handle(Query(q=0))
        assert isinstance(reply, Rn16Reply)
        assert node.state == REPLY

    def test_slot_counter_within_range(self):
        for seed in range(20):
            node = make_node(seed=seed)
            node.handle(Query(q=3))
            assert 0 <= node.slot_counter < 8

    def test_query_rep_counts_down(self):
        node = make_node(seed=1)
        node.handle(Query(q=4))
        if node.state == ARBITRATE:
            before = node.slot_counter
            node.handle(QueryRep())
            assert node.slot_counter == before - 1


class TestAcknowledge:
    def test_correct_rn16_acknowledges(self):
        node = make_node()
        reply = drive_to_reply(node)
        node.handle(Ack(rn16=reply.rn16))
        assert node.state == ACKNOWLEDGED
        assert node.is_acknowledged

    def test_wrong_rn16_back_to_arbitrate(self):
        node = make_node()
        reply = drive_to_reply(node)
        node.handle(Ack(rn16=(reply.rn16 + 1) % 0x10000))
        assert node.state == ARBITRATE

    def test_ack_ignored_when_ready(self):
        node = make_node()
        node.handle(Ack(rn16=1))
        assert node.state == READY


def make_acknowledged(node=None):
    """``node`` (by default :func:`make_node`) singulated and acknowledged."""
    node = node or make_node()
    node.handle(Ack(rn16=drive_to_reply(node).rn16))
    return node


class TestAcknowledgedCommands:
    def test_set_blf(self):
        node = make_acknowledged()
        node.handle(SetBlf(blf_khz=18))
        assert node.blf_khz == 18

    def test_set_blf_ignored_when_not_acknowledged(self):
        node = make_node()
        node.handle(SetBlf(blf_khz=18))
        assert node.blf_khz == 10  # default untouched

    def test_read_sensor_returns_report(self):
        node = make_acknowledged()
        report = node.handle(ReadSensor(channel="temperature"))
        assert isinstance(report, SensorReport)
        assert report.node_id == node.node_id
        assert report.value == pytest.approx(25.0, abs=1.0 / 32.0)

    def test_read_sensor_ignored_when_not_acknowledged(self):
        node = make_node()
        assert node.handle(ReadSensor(channel="temperature")) is None

    def test_next_round_releases_the_node(self):
        node = make_acknowledged()
        node.handle(QueryRep())
        assert node.state == READY

    def test_unreportable_reading_answers_nothing(self):
        # 1500 ue of strain is a valid gauge reading the report's
        # fixed-point field cannot carry (+/-1024).
        node = make_acknowledged(NodeStateMachine(
            node_id=1, read_sensor=lambda channel: 1500.0, seed=0
        ))
        assert node.handle(ReadSensor(channel="strain")) is None
        assert node.is_acknowledged


class TestFrames:
    """``handle_frame``: a downlink frame as heard, bit flips and all."""

    def test_intact_frame_is_handled_like_the_command(self):
        node = make_acknowledged()
        command = ReadSensor(channel="temperature")
        report = node.handle_frame(command.to_int(), command.WIDTH)
        assert report == node.handle(command)

    @pytest.mark.parametrize("index", range(ReadSensor.WIDTH))
    def test_flipped_frame_is_silent(self, index):
        node = make_acknowledged()
        frame = ReadSensor(channel="temperature").to_int() ^ (1 << index)
        assert node.handle_frame(frame, ReadSensor.WIDTH) is None
        assert node.is_acknowledged

    @pytest.mark.parametrize("code", [4, 5, 6, 7])
    def test_unassigned_channel_code_is_silent(self, code):
        node = make_acknowledged()
        frame = append_crc16((READ_SENSOR << 3) | code, 7)
        assert node.handle_frame(frame, ReadSensor.WIDTH) is None
        assert node.is_acknowledged


class TestCollisionBackoff:
    def test_collided_node_parks_until_next_query(self):
        """Gen2 wrap: a replier that is not acknowledged must not keep
        replying in every subsequent slot of the same round."""
        node = make_node()
        drive_to_reply(node, q=2)
        # No Ack arrives (collision); the round advances.
        reply = node.handle(QueryRep())
        assert reply is None
        assert node.state == ARBITRATE
        # The node stays silent for the rest of the round.
        for _ in range(10):
            assert node.handle(QueryRep()) is None

    def test_parked_node_rejoins_on_next_query(self):
        node = make_node()
        drive_to_reply(node, q=2)
        node.handle(QueryRep())  # collided -> parked
        reply = node.handle(Query(q=0))
        assert isinstance(reply, Rn16Reply)


class TestPowerCycle:
    def test_resets_state(self):
        node = make_node()
        reply = drive_to_reply(node)
        node.handle(Ack(rn16=reply.rn16))
        node.power_cycle()
        assert node.state == READY
        assert node.rn16 is None

    def test_rejects_bad_node_id(self):
        with pytest.raises(ProtocolError):
            NodeStateMachine(node_id=300, read_sensor=lambda c: 0.0)

    def test_unknown_command_raises(self):
        node = make_node()
        with pytest.raises(ProtocolError):
            node.handle("not a command")
