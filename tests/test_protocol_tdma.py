"""Unit tests for the slotted-TDMA inventory."""

import pytest

from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.protocol import NodeStateMachine, TdmaInventory


def make_nodes(count, seed=0):
    return [
        NodeStateMachine(
            node_id=i + 1,
            read_sensor=lambda channel, i=i: 20.0 + i,
            seed=seed + i,
        )
        for i in range(count)
    ]


class TestSingleRound:
    def test_single_node_always_heard(self):
        nodes = make_nodes(1)
        inventory = TdmaInventory(nodes=nodes, initial_q=0, seed=1)
        round_result = inventory.run_round()
        assert round_result.singulated == 1

    def test_slot_count_is_power_of_two(self):
        nodes = make_nodes(3)
        inventory = TdmaInventory(nodes=nodes, initial_q=3, seed=1)
        round_result = inventory.run_round()
        assert len(round_result.slots) == 8

    def test_accounting_consistent(self):
        nodes = make_nodes(5)
        inventory = TdmaInventory(nodes=nodes, initial_q=3, seed=2)
        round_result = inventory.run_round()
        categorised = (
            round_result.singulated
            + round_result.collisions
            + round_result.empties
        )
        # Some slots hold a lone node that failed singulation mid-protocol;
        # every slot is at most one category.
        assert categorised <= len(round_result.slots)
        assert round_result.singulated <= len(nodes)

    def test_efficiency_bounded(self):
        nodes = make_nodes(4)
        inventory = TdmaInventory(nodes=nodes, initial_q=2, seed=3)
        round_result = inventory.run_round()
        assert 0.0 <= round_result.efficiency <= 1.0


class TestInventoryAll:
    def test_hears_every_node(self):
        nodes = make_nodes(6, seed=10)
        inventory = TdmaInventory(
            nodes=nodes, initial_q=3, channels=("temperature",), seed=5
        )
        collected = inventory.inventory_all()
        assert set(collected) == {n.node_id for n in nodes}

    def test_reports_carry_values(self):
        nodes = make_nodes(3, seed=20)
        inventory = TdmaInventory(
            nodes=nodes, initial_q=2, channels=("temperature",), seed=6
        )
        collected = inventory.inventory_all()
        for node_id, reports in collected.items():
            assert reports[0].value == pytest.approx(20.0 + node_id - 1, abs=0.05)

    def test_multiple_channels(self):
        nodes = make_nodes(2, seed=30)
        inventory = TdmaInventory(
            nodes=nodes,
            initial_q=2,
            channels=("temperature", "temperature"),
            seed=7,
        )
        collected = inventory.inventory_all()
        assert all(len(reports) >= 2 for reports in collected.values())

    def test_distinct_blf_assignment(self):
        nodes = make_nodes(4, seed=40)
        inventory = TdmaInventory(
            nodes=nodes, initial_q=3, blf_plan_khz=(10, 14, 18, 22), seed=8
        )
        inventory.inventory_all()
        blfs = [n.blf_khz for n in nodes]
        # Everyone got assigned something from the plan.
        assert all(b in (10, 14, 18, 22) for b in blfs)

    def test_impossible_population_degrades(self):
        # Q capped at 0 with several nodes guarantees collisions forever;
        # the inventory reports the unheard nodes instead of raising.
        nodes = make_nodes(5, seed=50)
        inventory = TdmaInventory(nodes=nodes, initial_q=0, seed=9)
        inventory._q_float = 0.0
        result = inventory.inventory_all(max_rounds=1)
        assert result.degraded
        assert result.rounds_used == 1
        assert set(result.unheard_nodes) | set(result.reports) == {
            n.node_id for n in nodes
        }

    def test_complete_inventory_not_degraded(self):
        nodes = make_nodes(3, seed=55)
        inventory = TdmaInventory(nodes=nodes, initial_q=2, seed=12)
        result = inventory.inventory_all()
        assert not result.degraded
        assert result.unheard_nodes == []
        assert result.retries == 0
        assert result.fault_counts == {}
        assert result.rounds_used >= 1
        assert result.slots_used >= len(nodes)


class TestUnreportableReadings:
    """A reading outside the report's fixed-point field fails that read."""

    @staticmethod
    def strained_nodes():
        # The strain gauge spans +/-5000 ue; the report carries +/-1024.
        return [
            NodeStateMachine(
                node_id=i + 1,
                read_sensor=lambda channel, i=i: (
                    1500.0 if channel == "strain" else 20.0 + i
                ),
                seed=i,
            )
            for i in range(3)
        ]

    def test_other_channels_are_still_read(self):
        inventory = TdmaInventory(
            nodes=self.strained_nodes(), seed=1,
            channels=("temperature", "strain"),
        )
        result = inventory.inventory_all()
        assert not result.degraded
        assert {
            node_id: [r.channel for r in reports]
            for node_id, reports in result.items()
        } == {1: ["temperature"], 2: ["temperature"], 3: ["temperature"]}

    @pytest.mark.parametrize(
        "faults", [None, FaultPlan(seed=3, reply_loss_rate=1e-9)],
        ids=["clean", "faulted"],
    )
    def test_node_with_no_readable_channel_is_unheard(self, faults):
        inventory = TdmaInventory(
            nodes=self.strained_nodes(), seed=1, channels=("strain",),
            faults=faults,
        )
        result = inventory.inventory_all(max_rounds=3)
        assert result.reports == {}
        assert result.unheard_nodes == [1, 2, 3]
        if faults is not None:
            assert result.fault_counts["read_retries_exhausted"] > 0


class TestQAdaptation:
    def test_q_grows_under_collisions(self):
        nodes = make_nodes(12, seed=60)
        inventory = TdmaInventory(nodes=nodes, initial_q=1, seed=10)
        before = inventory._q_float
        inventory.run_round()
        assert inventory._q_float > before

    def test_q_shrinks_when_empty(self):
        nodes = make_nodes(1, seed=70)
        inventory = TdmaInventory(nodes=nodes, initial_q=4, seed=11)
        before = inventory._q_float
        inventory.run_round()
        assert inventory._q_float < before

    def test_rejects_bad_q(self):
        with pytest.raises(ProtocolError):
            TdmaInventory(nodes=make_nodes(1), initial_q=16)

    def test_rejects_empty_blf_plan(self):
        with pytest.raises(ProtocolError):
            TdmaInventory(nodes=make_nodes(1), blf_plan_khz=())
