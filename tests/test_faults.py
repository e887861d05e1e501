"""Tests for the fault-injection subsystem and the hardened stack above it.

Covers the FaultPlan/FaultInjector contracts, then the graceful-
degradation guarantees the issue demands: a session with every node
dark, nodes dying mid-round, and retry exhaustion under a corrupt
channel must all come back as partial *results* (with the obs counters
telling the story), never as uncaught ProtocolErrors.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro.acoustics import StructureGeometry
from repro.campaign import CampaignConfig
from repro.errors import CrcError, FaultConfigError, FaultPlanError, ProtocolError
from repro.faults import (
    FAULT_PLAN_SCHEMA,
    IO_FAULT_SCHEMA,
    RATE_FIELDS,
    WORKER_FAULT_SCHEMA,
    ChaosConfig,
    FaultInjector,
    FaultPlan,
    IoFaultPlan,
    WorkerFault,
    WorkerFaultPlan,
    ber_from_snr_db,
    plan_from_link_budget,
)
from repro.faults.plan import SeededInjector
from repro.fleet import FleetConfig
from repro.link import PlacedNode, PowerUpLink, WallSession
from repro.materials import get_concrete
from repro.node import EcoCapsule, Environment
from repro.obs import observed
from repro.protocol import NodeStateMachine, SensorReport, TdmaInventory, crc16


def make_sm_nodes(count, seed=0):
    return [
        NodeStateMachine(
            node_id=i + 1,
            read_sensor=lambda channel, i=i: 20.0 + i,
            seed=seed + i,
        )
        for i in range(count)
    ]


def make_budget(length=8.0):
    wall = StructureGeometry(
        "fault wall", length=length, thickness=0.20,
        medium=get_concrete("NC").medium,
    )
    return PowerUpLink(wall)


def make_placed(distances, seed=0):
    return [
        PlacedNode(
            capsule=EcoCapsule(
                node_id=i + 1,
                environment=Environment(temperature=20.0 + i),
                seed=seed + i,
            ),
            distance=d,
        )
        for i, d in enumerate(distances)
    ]


class TestFaultPlan:
    def test_defaults_are_inactive(self):
        assert not FaultPlan().active
        assert not FaultPlan.none().active

    def test_any_rate_makes_it_active(self):
        for name in RATE_FIELDS:
            assert FaultPlan(**{name: 0.1}).active, name

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range_rates(self, bad):
        with pytest.raises(FaultConfigError):
            FaultPlan(uplink_ber=bad)

    def test_rejects_non_numeric_rate_and_seed(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(brownout_rate="lots")
        with pytest.raises(FaultConfigError):
            FaultPlan(seed=1.5)
        with pytest.raises(FaultConfigError):
            FaultPlan(seed=True)

    def test_scaled_multiplies_and_clamps(self):
        plan = FaultPlan(uplink_ber=0.4, reply_loss_rate=0.1)
        doubled = plan.scaled(2.0)
        assert doubled.uplink_ber == pytest.approx(0.8)
        assert doubled.reply_loss_rate == pytest.approx(0.2)
        assert plan.scaled(10.0).uplink_ber == 1.0  # clamped
        assert not plan.scaled(0.0).active
        with pytest.raises(FaultConfigError):
            plan.scaled(-1.0)

    def test_dict_round_trip(self):
        plan = FaultPlan(seed=9, downlink_ber=0.01, brownout_rate=0.2)
        payload = plan.to_dict()
        assert payload["schema"] == FAULT_PLAN_SCHEMA
        assert FaultPlan.from_dict(payload) == plan

    def test_from_dict_rejects_unknown_fields_and_schema(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.from_dict({"uplink_berr": 0.1})
        with pytest.raises(FaultConfigError):
            FaultPlan.from_dict({"schema": "repro/fault-plan/v99"})
        with pytest.raises(FaultConfigError):
            FaultPlan.from_dict([1, 2, 3])

    def test_json_file_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, reply_loss_rate=0.25)
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        assert FaultPlan.from_json_file(path) == plan

    def test_json_file_errors_are_config_errors(self, tmp_path):
        with pytest.raises(FaultConfigError):
            FaultPlan.from_json_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultConfigError):
            FaultPlan.from_json_file(bad)


class TestFaultPlanDomainErrors:
    """``scaled()``/rate validation raises the dedicated FaultPlanError.

    ``min(1.0, nan)`` is 1.0 in Python: an unvalidated NaN intensity
    would silently saturate every rate into a plausible-looking
    catastrophic plan.  These inputs must fail loudly instead.
    """

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), -0.5, -1e-9],
        ids=["nan", "inf", "-inf", "negative", "tiny-negative"],
    )
    def test_scaled_rejects_bad_intensities(self, bad):
        plan = FaultPlan(uplink_ber=0.2)
        with pytest.raises(FaultPlanError):
            plan.scaled(bad)

    @pytest.mark.parametrize(
        "bad", ["2.0", None, True, [2.0]],
        ids=["str", "none", "bool", "list"],
    )
    def test_scaled_rejects_non_numbers(self, bad):
        plan = FaultPlan(uplink_ber=0.2)
        with pytest.raises(FaultPlanError):
            plan.scaled(bad)

    def test_nan_never_saturates_into_a_plausible_plan(self):
        # The failure mode the validation exists for: without it, a NaN
        # intensity would clamp every rate to exactly 1.0.
        plan = FaultPlan(uplink_ber=0.2, brownout_rate=0.1)
        try:
            scaled = plan.scaled(float("nan"))
        except FaultPlanError:
            return  # the required outcome
        pytest.fail(f"NaN intensity produced a plan: {scaled}")

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan")])
    def test_rate_validation_uses_the_plan_error_too(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan(stuck_sensor_rate=bad)

    def test_plan_error_is_a_config_error(self):
        # Existing except-FaultConfigError handlers must keep catching.
        assert issubclass(FaultPlanError, FaultConfigError)
        with pytest.raises(FaultConfigError):
            FaultPlan(uplink_ber=0.5).scaled(float("inf"))

    def test_valid_intensities_still_work(self):
        plan = FaultPlan(uplink_ber=0.25)
        assert plan.scaled(2).uplink_ber == pytest.approx(0.5)  # int is fine
        assert plan.scaled(0.0).uplink_ber == 0.0
        assert plan.scaled(1e9).uplink_ber == 1.0  # huge-but-finite clamps


class TestLinkDerivedPlans:
    def test_ber_waterline(self):
        assert ber_from_snr_db(40.0) < 1e-12
        assert 0.4 < ber_from_snr_db(-30.0) <= 0.5
        assert ber_from_snr_db(0.0) > ber_from_snr_db(10.0)

    def test_plan_tracks_distance(self):
        budget = make_budget()
        near = plan_from_link_budget(budget, 0.3, 250.0)
        edge_distance = 0.95 * budget.max_range(250.0)
        far = plan_from_link_budget(budget, edge_distance, 250.0)
        assert far.uplink_ber >= near.uplink_ber
        assert far.brownout_rate >= near.brownout_rate
        assert far.downlink_ber == far.uplink_ber  # symmetric channel

    def test_overrides_apply_on_top(self):
        plan = plan_from_link_budget(
            make_budget(), 0.5, 250.0, seed=4, reply_loss_rate=0.125
        )
        assert plan.reply_loss_rate == 0.125
        assert plan.seed == 4


class TestFaultInjector:
    def test_from_plan_skips_inactive(self):
        assert FaultInjector.from_plan(None) is None
        assert FaultInjector.from_plan(FaultPlan.none()) is None
        assert FaultInjector.from_plan(FaultPlan(uplink_ber=0.1)) is not None

    def test_streams_are_seed_deterministic(self):
        plan = FaultPlan(seed=7, uplink_ber=0.3, reply_loss_rate=0.5)
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert a.uplink_mask(80) == b.uplink_mask(80)
        assert [a.drop_reply() for _ in range(50)] == [
            b.drop_reply() for _ in range(50)
        ]

    def test_streams_are_independent(self):
        """Enabling one fault must not perturb another fault's draws."""
        alone = FaultInjector(FaultPlan(seed=7, uplink_ber=0.3))
        combined = FaultInjector(
            FaultPlan(seed=7, uplink_ber=0.3, brownout_rate=0.5)
        )
        for _ in range(20):
            combined.brownout()  # interleave draws from another stream
        assert alone.uplink_mask(80) == combined.uplink_mask(80)

    def test_certain_ber_flips_every_bit(self):
        injector = FaultInjector(FaultPlan(downlink_ber=1.0))
        assert injector.downlink_mask(4) == 0b1111
        assert injector.counts["downlink_bits_flipped"] == 4

    def test_zero_rate_never_draws(self):
        injector = FaultInjector(FaultPlan(uplink_ber=0.5))
        assert not injector.drop_reply()  # reply_loss_rate is 0
        assert "reply_loss" not in injector._streams

    def test_stuck_sensor_latches_first_reading(self):
        from repro.protocol import SensorReport

        injector = FaultInjector(FaultPlan(stuck_sensor_rate=1.0))
        first = SensorReport.from_value(1, "temperature", 20.0)
        assert injector.latch_stuck(first) is first  # first read decides
        moved = SensorReport.from_value(1, "temperature", 29.0)
        latched = injector.latch_stuck(moved)
        assert latched.raw == first.raw
        assert injector.counts["stuck_reads"] == 1
        # A different channel latches independently.
        other = SensorReport.from_value(1, "strain", 100.0)
        assert injector.latch_stuck(other) is other

    def test_record_books_into_obs(self):
        with observed() as scope:
            injector = FaultInjector(FaultPlan(reply_loss_rate=1.0))
            injector.drop_reply()
            assert scope.registry.counter("faults.replies_dropped").value == 1.0
        assert injector.counts["replies_dropped"] == 1


class TestTdmaUnderFaults:
    def test_inactive_plan_matches_no_plan_exactly(self):
        clean = TdmaInventory(nodes=make_sm_nodes(4, seed=10), seed=5)
        nulled = TdmaInventory(
            nodes=make_sm_nodes(4, seed=10), seed=5, faults=FaultPlan.none()
        )
        a, b = clean.inventory_all(), nulled.inventory_all()
        assert dict(a) == dict(b)
        assert a.rounds_used == b.rounds_used
        assert a.slots_used == b.slots_used
        assert b.retries == 0 and b.fault_counts == {}

    def test_fault_run_is_deterministic(self):
        def run_once():
            inventory = TdmaInventory(
                nodes=make_sm_nodes(5, seed=20),
                initial_q=3,
                seed=6,
                faults=FaultPlan(
                    seed=2, uplink_ber=0.01, reply_loss_rate=0.1,
                    brownout_rate=0.05, slot_jitter_rate=0.05,
                ),
            )
            result = inventory.inventory_all(max_rounds=10)
            return (
                {k: [r.raw for r in v] for k, v in result.reports.items()},
                result.rounds_used,
                result.slots_used,
                result.retries,
                result.fault_counts,
                result.unheard_nodes,
            )

        assert run_once() == run_once()

    def test_all_nodes_browning_out_degrades_not_raises(self):
        inventory = TdmaInventory(
            nodes=make_sm_nodes(3, seed=30),
            seed=7,
            faults=FaultPlan(seed=1, brownout_rate=1.0),
        )
        result = inventory.inventory_all(max_rounds=4)
        assert result.degraded
        assert result.reports == {}
        assert result.unheard_nodes == [1, 2, 3]
        assert result.fault_counts["brownouts"] == 3 * 4

    def test_corrupt_replies_trigger_retries_then_give_up(self):
        # Heavy uplink corruption: singulation sometimes survives (the
        # RN16 has no CRC) but the CRC-protected sensor reports are
        # destroyed, so reads retry to exhaustion and the inventory
        # degrades cleanly instead of raising.
        inventory = TdmaInventory(
            nodes=make_sm_nodes(2, seed=40),
            seed=8,
            max_retries=2,
            faults=FaultPlan(seed=4, uplink_ber=0.08),
        )
        result = inventory.inventory_all(max_rounds=3)
        assert result.degraded
        assert result.unheard_nodes == [1, 2]
        assert result.retries > 0
        assert result.fault_counts["read_retries_exhausted"] > 0
        assert result.fault_counts["uplink_bits_flipped"] > 0

    def test_moderate_faults_recoverable_with_retries(self):
        inventory = TdmaInventory(
            nodes=make_sm_nodes(4, seed=50),
            initial_q=3,
            seed=9,
            max_retries=3,
            faults=FaultPlan(seed=4, reply_loss_rate=0.2),
        )
        result = inventory.inventory_all(max_rounds=15)
        assert not result.degraded  # retries absorb a 20% loss rate
        assert result.retries > 0

    def test_obs_counters_reflect_injected_events(self):
        with observed() as scope:
            inventory = TdmaInventory(
                nodes=make_sm_nodes(3, seed=60),
                seed=10,
                faults=FaultPlan(seed=5, reply_loss_rate=0.3),
            )
            result = inventory.inventory_all(max_rounds=10)
            dropped = scope.registry.counter("faults.replies_dropped").value
            assert dropped == result.fault_counts["replies_dropped"] > 0
            if result.retries:
                assert (
                    scope.registry.counter("tdma.retries").value
                    == result.retries
                )

    def test_crc_valid_reply_with_unassigned_channel_is_rejected(
        self, monkeypatch
    ):
        # CRC-16 is affine over a fixed width: XORing a body delta
        # together with crc16(delta) ^ crc16(0) keeps any frame
        # CRC-valid.  This mask turns channel code c into c ^ 0b100,
        # one of the unassigned codes 4-7.
        delta = 0b100 << 16
        mask = (delta << 16) | (crc16(delta, 27) ^ crc16(0, 27))
        report = SensorReport.from_value(1, "temperature", 20.0)
        with pytest.raises(ProtocolError) as caught:
            SensorReport.from_int(report.to_int() ^ mask)
        assert not isinstance(caught.value, CrcError)

        inventory = TdmaInventory(
            nodes=make_sm_nodes(3, seed=30),
            seed=7,
            faults=FaultPlan(seed=1, uplink_ber=1e-9),
        )
        monkeypatch.setattr(
            inventory._injector, "uplink_mask",
            lambda width: mask if width == SensorReport.WIDTH else 0,
        )
        result = inventory.inventory_all(max_rounds=2)
        assert result.reports == {}
        assert result.unheard_nodes == [1, 2, 3]
        exhausted = result.fault_counts["read_retries_exhausted"]
        # Every read: the first reply and max_retries more, all rejected.
        assert result.fault_counts["uplink_rejected"] == 3 * exhausted > 0


def count_draws(monkeypatch):
    """Count each named stream's draws, by wrapping the stream lookup."""
    draws = {}
    real_stream = SeededInjector._stream

    class CountingStream:
        def __init__(self, name, stream):
            self.name, self.stream = name, stream

        def random(self):
            draws[self.name] = draws.get(self.name, 0) + 1
            return self.stream.random()

        def randrange(self, n):
            draws[self.name] = draws.get(self.name, 0) + 1
            return self.stream.randrange(n)

    monkeypatch.setattr(
        SeededInjector, "_stream",
        lambda self, name: CountingStream(name, real_stream(self, name)),
    )
    return draws


class TestDrawContract:
    """The bit-error channel draws once per transmitted bit, MSB first.

    One stream value per bit of every frame, whether or not a bit
    flips and however small the error rate, on the link's own stream.
    The counts, fault tallies and reports below were recorded from the
    bit-list channel, which corrupted a frame's bits one draw at a time.
    In each case one link flips bits and the other runs at a BER so
    small that nothing flips: a draw skipped there changes no report
    and no result hash, only the counts.
    """

    OTHER_FAULTS = dict(
        reply_loss_rate=0.05, brownout_rate=0.05, slot_jitter_rate=0.05,
        stuck_sensor_rate=0.3,
    )
    CASES = {
        "downlink-flips": (
            dict(downlink_ber=0.02, uplink_ber=1e-9),
            {"brownout": 72, "brownout_slot": 5, "downlink": 3821,
             "reply_loss": 75, "slot_jitter": 42, "stuck": 10,
             "uplink": 1654},
            {"brownouts": 5, "downlink_bits_flipped": 74,
             "jittered_slots": 1, "replies_dropped": 2, "stuck_reads": 4},
            {1: ["temperature", "strain"], 2: ["temperature", "strain"],
             3: ["temperature", "strain"], 4: ["temperature", "strain"],
             6: ["temperature", "strain"]},
            (12, 42, 18, [5]),
        ),
        "uplink-flips": (
            dict(downlink_ber=1e-9, uplink_ber=0.02),
            {"brownout": 30, "brownout_slot": 2, "downlink": 2698,
             "reply_loss": 69, "slot_jitter": 24, "stuck": 12,
             "uplink": 2071},
            {"brownouts": 2, "read_retries_exhausted": 5,
             "replies_dropped": 2, "stuck_reads": 4,
             "uplink_bits_flipped": 46, "uplink_rejected": 24},
            {1: ["temperature", "strain"], 2: ["strain"],
             3: ["temperature"], 4: ["temperature", "strain"],
             5: ["temperature", "strain"], 6: ["temperature", "strain"]},
            (5, 24, 24, []),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_draws_per_stream_match_the_bit_list_channel(
        self, monkeypatch, case
    ):
        rates, draws, faults, channels, shape = self.CASES[case]
        counted = count_draws(monkeypatch)
        inventory = TdmaInventory(
            nodes=make_sm_nodes(6, seed=50),
            initial_q=2,
            seed=9,
            channels=("temperature", "strain"),
            faults=FaultPlan(seed=11, **rates, **self.OTHER_FAULTS),
        )
        result = inventory.inventory_all(max_rounds=12)
        assert counted == draws
        assert result.fault_counts == faults
        assert {
            node_id: [r.channel for r in reports]
            for node_id, reports in result.items()
        } == channels
        for node_id, reports in result.items():
            # Every node reads 20 + (node_id - 1), on every channel.
            assert {r.raw for r in reports} == {
                SensorReport.from_value(node_id, "strain", 19.0 + node_id).raw
            }
        assert (
            result.rounds_used, result.slots_used, result.retries,
            result.unheard_nodes,
        ) == shape


class TestSessionUnderFaults:
    def test_total_reader_dropout_fails_charging_gracefully(self):
        with observed() as scope:
            session = WallSession(
                budget=make_budget(),
                nodes=make_placed([0.5, 1.0]),
                seed=3,
                faults=FaultPlan(seed=1, reader_dropout_rate=1.0),
                max_charge_attempts=3,
                backoff_initial_s=0.5,
                backoff_max_s=2.0,
            )
            result = session.run()
            assert scope.registry.counter("session.charge_failures").value == 1
        assert result.charge_failed and result.degraded
        assert result.powered_nodes == [] and result.reports == {}
        assert result.charge_attempts == 3
        # 0.5 + 1.0 (doubling, capped at 2.0, no wait after the last try).
        assert result.backoff_s == pytest.approx(1.5)
        assert result.fault_counts["reader_dropouts"] == 3

    def test_brownouts_mid_session_yield_partial_results(self):
        session = WallSession(
            budget=make_budget(),
            nodes=make_placed([0.5, 1.0, 1.5, 2.0]),
            seed=4,
            faults=FaultPlan(seed=2, brownout_rate=0.4),
        )
        result = session.run(max_rounds=3)
        # Brownouts cost rounds; whatever was heard is reported and
        # whatever was not is itemised -- never an exception.
        assert sorted(result.reports) + result.unheard_nodes
        assert set(result.reports).isdisjoint(result.unheard_nodes)
        assert result.fault_counts["brownouts"] > 0
        assert result.recharges == result.rounds_used - 1

    def test_recharge_cycles_are_billed_in_fault_mode(self):
        plan = FaultPlan(seed=5, reply_loss_rate=0.3)
        faulted = WallSession(
            budget=make_budget(), nodes=make_placed([0.5, 1.0, 1.5]),
            seed=5, faults=plan,
        ).run()
        clean = WallSession(
            budget=make_budget(), nodes=make_placed([0.5, 1.0, 1.5]), seed=5
        ).run()
        if faulted.recharges:
            assert faulted.elapsed > faulted.slots_used * 0.0  # sanity
            per_slot_clean = clean.elapsed / max(clean.slots_used, 1)
            assert faulted.elapsed > per_slot_clean * faulted.slots_used

    def test_session_fault_run_is_deterministic(self):
        def run_once():
            result = WallSession(
                budget=make_budget(),
                nodes=make_placed([0.5, 1.0, 1.5]),
                seed=6,
                faults=FaultPlan(
                    seed=3, uplink_ber=0.005, reply_loss_rate=0.1,
                    brownout_rate=0.1, reader_dropout_rate=0.3,
                ),
            ).run()
            return (
                result.powered_nodes,
                {k: [r.raw for r in v] for k, v in result.reports.items()},
                result.unheard_nodes,
                result.retries,
                result.charge_attempts,
                result.backoff_s,
                result.fault_counts,
                result.elapsed,
            )

        assert run_once() == run_once()

    def test_clean_session_reports_clean_recovery_fields(self):
        result = WallSession(
            budget=make_budget(), nodes=make_placed([0.5, 1.0]), seed=7
        ).run()
        assert not result.degraded
        assert result.retries == 0
        assert result.charge_attempts == 1
        assert result.backoff_s == 0.0
        assert result.recharges == 0
        assert result.fault_counts == {}
        assert not result.charge_failed


class TestFaultSweepExperiment:
    def test_quick_sweep_shape_and_anchor(self):
        from repro.experiments import fault_sweep

        result = fault_sweep.run(
            intensities=[0.0, 1.0], nodes=4, max_rounds=10
        )
        assert [p.intensity for p in result.points] == [0.0, 1.0]
        anchor = result.point_at(0.0)
        assert anchor.retries == 0
        assert anchor.brownouts == 0 and anchor.replies_dropped == 0
        assert result.plan["schema"] == FAULT_PLAN_SCHEMA
        with pytest.raises(KeyError):
            result.point_at(7.0)

    def test_sweep_is_deterministic(self):
        from repro.experiments import fault_sweep

        kwargs = dict(intensities=[0.0, 1.5], nodes=4, max_rounds=8, seed=11)
        assert fault_sweep.run(**kwargs) == fault_sweep.run(**kwargs)


_IO_PLAN = IoFaultPlan(7, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.5)
_IO_PLAN_DICT = {
    "schema": "repro/io-faults/v1", "seed": 7, "enospc_write_rate": 0.01,
    "eio_read_rate": 0.02, "eio_fsync_rate": 0.03, "torn_write_rate": 0.04,
    "drop_rename_rate": 0.05, "bitrot_read_rate": 0.06, "persistence": 0.5,
}
_CAMPAIGN = CampaignConfig(
    epochs=3, nodes=2, wall_length=6.5, tx_voltage=200.0, hours_per_epoch=12,
    samples_per_hour=2, seed=11,
    fault_rates={"uplink_ber": 0.002, "brownout_rate": 0.1},
    fault_intensity=0.5, storm_period_epochs=4, storm_duration_epochs=1,
    storm_fault_intensity=2.0, checkpoint_interval=2, checkpoint_keep=3,
    epoch_timeout_s=30.0,
)
_CAMPAIGN_DICT = {
    "schema": "repro/campaign-config/v1", "epochs": 3, "nodes": 2,
    "wall_length": 6.5, "tx_voltage": 200.0, "hours_per_epoch": 12,
    "samples_per_hour": 2, "seed": 11,
    "fault_rates": {"brownout_rate": 0.1, "uplink_ber": 0.002},
    "fault_intensity": 0.5, "storm_period_epochs": 4,
    "storm_duration_epochs": 1, "storm_fault_intensity": 2.0,
    "checkpoint_interval": 2, "checkpoint_keep": 3, "epoch_timeout_s": 30.0,
}


class TestPersistedFormats:
    """Every schema-tagged config and plan keeps its exact dict: these
    dicts reach checkpoint digests, fleet.json, chaos.json, the
    fault_sweep result and users' plan files."""

    @pytest.mark.parametrize(
        "obj,expected",
        [
            (
                FaultPlan(5, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07),
                {
                    "schema": "repro/fault-plan/v1", "seed": 5,
                    "downlink_ber": 0.01, "uplink_ber": 0.02,
                    "reply_loss_rate": 0.03, "brownout_rate": 0.04,
                    "reader_dropout_rate": 0.05, "slot_jitter_rate": 0.06,
                    "stuck_sensor_rate": 0.07,
                },
            ),
            (_IO_PLAN, _IO_PLAN_DICT),
            (
                WorkerFault("b002", 1, "kill", times=2),
                {"building": "b002", "epoch": 1, "action": "kill", "times": 2},
            ),
            (
                WorkerFaultPlan((
                    WorkerFault("b002", 1, "kill", times=2),
                    WorkerFault("b003", 0, "poison"),
                )),
                {
                    "schema": "repro/worker-fault-plan/v1",
                    "faults": [
                        {"building": "b002", "epoch": 1, "action": "kill",
                         "times": 2},
                        {"building": "b003", "epoch": 0, "action": "poison",
                         "times": -1},
                    ],
                },
            ),
            (_CAMPAIGN, _CAMPAIGN_DICT),
            (
                FleetConfig(
                    buildings=("b2", "b1"), campaign=_CAMPAIGN, seed=7,
                    workers=2, max_restarts=5, heartbeat_timeout_s=10.0,
                    backoff_base_s=0.1, backoff_max_s=1.0,
                    poll_interval_s=0.02,
                ),
                {
                    "schema": "repro/fleet-config/v1",
                    "buildings": ["b1", "b2"], "campaign": _CAMPAIGN_DICT,
                    "seed": 7, "workers": 2, "max_restarts": 5,
                    "heartbeat_timeout_s": 10.0, "backoff_base_s": 0.1,
                    "backoff_max_s": 1.0, "poll_interval_s": 0.02,
                },
            ),
            (
                ChaosConfig(
                    scenario="store", seed=5, epochs=2, nodes=3,
                    hours_per_epoch=6, buildings=2, batches=4,
                    rows_per_batch=16, max_attempts=3, plan=_IO_PLAN,
                ),
                {
                    "scenario": "store", "seed": 5, "epochs": 2, "nodes": 3,
                    "hours_per_epoch": 6, "buildings": 2, "batches": 4,
                    "rows_per_batch": 16, "max_attempts": 3,
                    "plan": _IO_PLAN_DICT,
                },
            ),
        ],
        ids=[
            "FaultPlan", "IoFaultPlan", "WorkerFault", "WorkerFaultPlan",
            "CampaignConfig", "FleetConfig", "ChaosConfig",
        ],
    )
    def test_to_dict_is_pinned_and_round_trips(self, obj, expected):
        payload = obj.to_dict()
        assert payload == expected
        assert list(payload) == list(expected)
        assert type(obj).from_dict(payload) == obj


class TestDocumentedPlans:
    OWNERS = {
        FAULT_PLAN_SCHEMA: FaultPlan,
        IO_FAULT_SCHEMA: IoFaultPlan,
        WORKER_FAULT_SCHEMA: WorkerFaultPlan,
    }

    def test_every_fault_plan_example_in_the_docs_loads(self):
        docs = Path(__file__).resolve().parents[1] / "docs"
        examples = [
            json.loads(block)
            for doc in sorted(docs.glob("*.md"))
            for block in re.findall(r"```json\n(.*?)```", doc.read_text(), re.S)
            if re.search(r'"schema":\s*"[^"]*fault', block)
        ]
        assert len(examples) >= 3
        for payload in examples:
            owner = self.OWNERS.get(payload["schema"])
            assert owner is not None, f"no plan class owns {payload['schema']!r}"
            owner.from_dict(payload)
