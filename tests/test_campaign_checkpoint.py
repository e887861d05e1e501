"""Tests for the campaign persistence layer: config, state, checkpoints, log.

The contracts under test are the ones ``docs/CAMPAIGN.md`` promises:
lossless round-trips (config, state, RNG streams, injector memory),
hash-verified checkpoint loads with quarantine + rollback instead of
crashes, and an epoch log whose torn tails truncate cleanly.
"""

import json
import random

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignState,
    CheckpointStore,
    EpochLog,
    checkpoint_digest,
    pilot_epochs,
)
from repro.campaign.log import EPOCH_LOG_SCHEMA, decode_line, encode_line
from repro.campaign.state import decode_rng_state, encode_rng_state
from repro.errors import CampaignError, CheckpointError, FaultConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import observed
from repro.runtime import crclog


class TestCampaignConfig:
    def test_pilot_is_74_weekly_epochs(self):
        assert pilot_epochs() == 74
        assert CampaignConfig().epochs == 74
        with pytest.raises(CampaignError):
            pilot_epochs(0)

    def test_dict_round_trip(self):
        config = CampaignConfig(epochs=10, nodes=3, seed=7)
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields_and_schema(self):
        with pytest.raises(CampaignError):
            CampaignConfig.from_dict({"epochz": 3})
        with pytest.raises(CampaignError):
            CampaignConfig.from_dict({"schema": "repro/campaign-config/v99"})
        with pytest.raises(CampaignError):
            CampaignConfig.from_dict("not an object")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epochs", 0),
            ("nodes", -1),
            ("hours_per_epoch", 0),
            ("checkpoint_interval", 0),
            ("wall_length", -1.0),
            ("wall_length", float("nan")),
            ("wall_length", float("inf")),
            ("tx_voltage", float("nan")),
            ("tx_voltage", float("inf")),
            ("fault_intensity", float("nan")),
            ("storm_fault_intensity", -2.0),
            ("epochs", True),
            ("storm_period_epochs", 2.5),
            ("storm_period_epochs", "2"),
            ("storm_duration_epochs", -1),
            ("seed", "x"),
            ("epoch_timeout_s", float("nan")),
            ("wall_length", "8"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(CampaignError):
            CampaignConfig(**{field: value})

    def test_bad_fault_rates_fail_at_config_time(self):
        with pytest.raises(FaultConfigError):
            CampaignConfig(fault_rates={"uplink_ber": 1.5})
        with pytest.raises(FaultConfigError):
            CampaignConfig(fault_rates={"uplink_ber": float("nan")})

    def test_storm_schedule(self):
        config = CampaignConfig(
            epochs=10, storm_period_epochs=5, storm_duration_epochs=2
        )
        assert config.storm_epochs() == (3, 4, 8, 9)
        quiet = CampaignConfig(epochs=10, storm_period_epochs=0)
        assert quiet.storm_epochs() == ()

    def test_epoch_fault_plan_is_seeded_per_epoch_and_storm_scaled(self):
        config = CampaignConfig(
            epochs=10,
            storm_period_epochs=5,
            storm_duration_epochs=1,
            storm_fault_intensity=3.0,
        )
        quiet = config.epoch_fault_plan(0)
        storm = config.epoch_fault_plan(4)
        assert quiet.seed != storm.seed  # independent per-epoch streams
        assert storm.reply_loss_rate == pytest.approx(
            min(1.0, 3.0 * quiet.reply_loss_rate)
        )
        # Recomputable: the same epoch always yields the same plan.
        assert config.epoch_fault_plan(4) == storm

    def test_no_faults_mode(self):
        config = CampaignConfig(fault_rates=None)
        assert config.epoch_fault_plan(0) is None


class TestCampaignState:
    def test_rng_state_round_trip_continues_the_stream(self):
        rng = random.Random("campaign:99")
        rng.random()  # advance mid-sequence
        encoded = encode_rng_state(rng.getstate())
        # Through JSON, like a real checkpoint.
        decoded = decode_rng_state(json.loads(json.dumps(encoded)))
        clone = random.Random()
        clone.setstate(decoded)
        assert [clone.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]

    def test_decode_rng_state_rejects_garbage(self):
        with pytest.raises(CampaignError):
            decode_rng_state([1, 2])
        with pytest.raises(CampaignError):
            decode_rng_state("nope")

    def test_state_round_trip_is_lossless(self):
        state = CampaignState.fresh(5)
        state.rng.random()
        state.stuck_latches = {"2:strain": 123, "1:humidity": None}
        state.epoch_records = [
            {"epoch": 0, "status": "ok", "grade": "A"},
            {"epoch": 1, "status": "ok", "fault_counts": {"brownouts": 4}},
            {"epoch": 2, "status": "epoch_timeout"},
        ]
        payload = json.loads(json.dumps(state.to_dict()))
        # The checkpoint carries the boundary only; records come from the log.
        assert set(payload) == {"schema", "epoch", "rng_state", "stuck_latches"}
        assert payload["epoch"] == 3
        clone = CampaignState.from_dict(payload, state.epoch_records)
        assert clone.to_dict() == state.to_dict()
        assert clone.epoch_records == state.epoch_records
        assert clone.rng.random() == state.rng.random()

    def test_v1_state_loads_without_its_sample_series(self):
        state = CampaignState.fresh(5)
        state.epoch_records = [{"epoch": 0, "grade": "B"}, {"epoch": 1, "grade": "B"}]
        v1 = dict(
            state.to_dict(),
            schema="repro/campaign-state/v1",
            grade_counts={"B": 2},
            hours=[0.0, 1.0],
            acceleration=[0.001, -0.002],
            stress_mpa=[-60.0, -61.5],
        )
        clone = CampaignState.from_dict(
            json.loads(json.dumps(v1)), state.epoch_records
        )
        assert clone.to_dict() == state.to_dict()
        assert clone.to_dict()["schema"] == "repro/campaign-state/v3"

    def test_v2_state_loads_only_its_boundary_fields(self):
        state = CampaignState.fresh(5)
        state.stuck_latches = {"1:strain": 7}
        state.epoch_records = [
            {"epoch": 0, "status": "ok"}, {"epoch": 1, "status": "epoch_timeout"},
        ]
        v2 = dict(
            state.to_dict(),
            schema="repro/campaign-state/v2",
            fault_totals={"brownouts": 4},
            grade_counts={"A": 1},
            epoch_records=[{"epoch": 0, "status": "stale copy"}],
            timeouts=[1],
        )
        clone = CampaignState.from_dict(
            json.loads(json.dumps(v2)), state.epoch_records
        )
        assert clone.to_dict() == state.to_dict()
        assert clone.epoch_records == state.epoch_records  # the log's copy

    def test_from_dict_rejects_bad_payloads(self):
        with pytest.raises(CampaignError):
            CampaignState.from_dict({"schema": "wrong"}, [])
        good = CampaignState.fresh(1).to_dict()
        del good["rng_state"]
        with pytest.raises(CampaignError):
            CampaignState.from_dict(good, [])

    @pytest.mark.parametrize("epochs", [[0], [0, 2], [0, 1, 2], [1, 0]])
    def test_from_dict_takes_exactly_the_epochs_before_the_boundary(self, epochs):
        state = CampaignState.fresh(1)
        state.epoch_records = [{"epoch": 0}, {"epoch": 1}]
        payload = state.to_dict()
        assert CampaignState.from_dict(payload, state.epoch_records).epoch == 2
        with pytest.raises(CampaignError, match="not epochs 0 .. 1"):
            CampaignState.from_dict(payload, [{"epoch": e} for e in epochs])


class TestInjectorStateRoundTrip:
    def test_streams_and_latches_survive_export(self):
        plan = FaultPlan(seed=3, uplink_ber=0.2, stuck_sensor_rate=0.5)
        injector = FaultInjector(plan)
        injector.uplink_mask(64)  # advance the uplink stream
        from repro.protocol.packets import SensorReport

        first = SensorReport(node_id=1, channel="strain", raw=100)
        injector.latch_stuck(first)

        exported = json.loads(json.dumps(injector.export_state()))
        clone = FaultInjector(plan)
        clone.restore_state(exported)
        # The restored stream continues exactly where the original is.
        assert clone.uplink_mask(64) == injector.uplink_mask(64)
        assert clone._stuck == injector._stuck

    def test_restore_rejects_malformed_payloads(self):
        injector = FaultInjector(FaultPlan(seed=1, uplink_ber=0.1))
        with pytest.raises(FaultConfigError):
            injector.restore_state({"streams": {}})
        with pytest.raises(FaultConfigError):
            injector.restore_state({"streams": {"x": "bad"}, "stuck": [], "counts": {}})


def _records(epochs):
    return [{"epoch": epoch} for epoch in range(epochs)]


def _save(store, epoch, seed=1):
    config = CampaignConfig(epochs=5, seed=seed)
    state = CampaignState.fresh(seed)
    state.epoch_records = _records(epoch)
    return store.save(epoch, config.to_dict(), state.to_dict())


class TestCheckpointStore:
    def test_save_verify_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        path = _save(store, 2)
        payload = store.verify(path)
        assert payload["epoch"] == 2
        loaded = store.load_latest()
        assert loaded["epoch"] == 2
        assert CampaignState.from_dict(loaded["state"], _records(2)).epoch == 2

    def test_load_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for epoch in (1, 2, 3):
            _save(store, epoch)
        assert store.load_latest()["epoch"] == 3
        assert store.latest_epoch() == 3

    def test_max_epoch_leaves_newer_checkpoints_in_place(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        paths = [_save(store, epoch) for epoch in (1, 2, 3)]
        before = paths[2].read_bytes()
        with observed() as scope:
            assert store.load_latest(max_epoch=2)["epoch"] == 2
            assert scope.registry.counter("campaign.rollbacks").value == 1.0
        assert paths[2].read_bytes() == before
        assert store.load_latest(max_epoch=0) is None
        assert all(path.exists() for path in paths)
        assert not store.quarantine_dir.exists()

    def test_find_reports_corruption_without_moving_it(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        _save(store, 1)
        newest = _save(store, 2)
        newest.write_text("rotted")
        payload, corrupt = store.find()
        assert payload["epoch"] == 1
        assert [path for path, _ in corrupt] == [newest]
        assert "not valid JSON" in corrupt[0][1]
        assert newest.read_text() == "rotted"
        assert store.find(max_epoch=0) == (None, [])

    def test_empty_store_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "nothing").load_latest() is None
        assert CheckpointStore(tmp_path / "nothing").latest_epoch() is None

    def test_hash_mismatch_is_quarantined_with_rollback(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        _save(store, 1)
        newest = _save(store, 2)
        # Flip a byte inside the body without touching the stored hash.
        payload = json.loads(newest.read_text())
        payload["state"]["epoch"] = 777
        newest.write_text(json.dumps(payload))
        loaded = store.load_latest()
        assert loaded["epoch"] == 1  # rolled back
        assert not newest.exists()
        quarantined = list(store.quarantine_dir.iterdir())
        assert [p.name for p in quarantined] == ["epoch-000002.json"]

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda p: p.write_text("{truncated"),
            lambda p: p.write_text('{"schema": "other/v1"}'),
            lambda p: p.write_text(json.dumps({"schema": "repro/campaign-checkpoint/v1"})),
            lambda p: p.write_bytes(b"\x00" * 64),
        ],
    )
    def test_every_corruption_mode_is_detected(self, tmp_path, corruption):
        store = CheckpointStore(tmp_path / "ckpt")
        path = _save(store, 1)
        corruption(path)
        with pytest.raises(CheckpointError):
            store.verify(path)

    def test_all_corrupt_is_a_loud_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for epoch in (1, 2):
            _save(store, epoch).write_text("garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load_latest()
        # Both moved aside as forensic evidence, none deleted.
        assert len(list(store.quarantine_dir.iterdir())) == 2

    def test_prune_keeps_the_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep=3)
        for epoch in range(1, 7):
            _save(store, epoch)
        names = sorted(p.name for p in store.directory.iterdir())
        assert names == [
            "epoch-000004.json", "epoch-000005.json", "epoch-000006.json"
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path, keep=0)

    def test_digest_is_canonical(self):
        body = {"b": 1, "a": [1.5, 2]}
        assert checkpoint_digest(body) == checkpoint_digest(
            {"a": [1.5, 2], "b": 1}
        )


class TestEpochLog:
    def test_append_and_read_back(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(3):
            log.append({"epoch": epoch, "status": "ok"})
        assert [r["epoch"] for r in log.records()] == [0, 1, 2]
        assert [r["epoch"] for r in log.recover()] == [0, 1, 2]

    def test_missing_log_is_empty(self, tmp_path):
        log = EpochLog(tmp_path / "none.jsonl")
        assert log.records() == []
        assert log.recover() == []

    def test_torn_tail_is_truncated(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(3):
            log.append({"epoch": epoch})
        with log.path.open("ab") as handle:
            handle.write(b'{"schema": "repro/campaign-epo')  # torn append
        assert [r["epoch"] for r in log.recover()] == [0, 1, 2]
        # The file itself healed: a second recovery changes nothing.
        before = log.path.read_bytes()
        assert [r["epoch"] for r in log.recover()] == [0, 1, 2]
        assert log.path.read_bytes() == before

    def test_flipped_final_newline_is_loud_not_torn(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(3):
            log.append({"epoch": epoch})
        raw = log.path.read_bytes()
        torn = crclog.scan_lines(raw[:-1], EPOCH_LOG_SCHEMA)
        flipped = crclog.scan_lines(raw[:-1] + b" ", EPOCH_LOG_SCHEMA)
        # Both keep the first two lines; only the tear is a tear.
        assert [r["epoch"] for r in torn.records] == [0, 1] and torn.bad is None
        assert flipped.good_bytes == torn.good_bytes
        assert flipped.bad == "bytes follow the final line"

    def test_interior_corruption_truncates_from_there(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(4):
            log.append({"epoch": epoch})
        lines = log.path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"schema": "repro/campaign-epoch-log/v1", "crc": 1, "record": {"epoch": 1}}\n'
        log.path.write_bytes(b"".join(lines))
        # Record 1 fails its CRC: everything from it on is suspect.
        assert [r["epoch"] for r in log.recover()] == [0]

    def test_recover_cuts_back_to_a_record_boundary(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(4):
            log.append({"epoch": epoch})
        scan = log.scan()
        assert scan.ends[-1] == log.path.stat().st_size
        with observed() as scope:
            assert [r["epoch"] for r in log.recover(2, scan)] == [0, 1]
            # Dropping good records is a rewind, not damage.
            assert scope.registry.counter("campaign.log_truncations").value == 0.0
        assert log.path.stat().st_size == scan.ends[1]
        assert [r["epoch"] for r in log.records()] == [0, 1]
        log.append({"epoch": 2})
        assert [r["epoch"] for r in log.records()] == [0, 1, 2]
        assert log.recover(0) == [] and log.path.read_bytes() == b""

    def test_numbering_gap_truncates_from_there(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in (0, 1, 5, 6):
            log.append({"epoch": epoch})
        scan = log.scan()
        assert [r["epoch"] for r in scan.records] == [0, 1]
        assert scan.bad == "line 3 holds epoch 5"
        with observed() as scope:
            assert [r["epoch"] for r in log.recover()] == [0, 1]
            assert scope.registry.counter("campaign.log_truncations").value == 1.0
        assert log.path.stat().st_size == scan.good_bytes

    def test_scan_changes_nothing(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        for epoch in range(3):
            log.append({"epoch": epoch})
        raw = log.path.read_bytes()
        log.path.write_bytes(raw[:10] + b"X" + raw[11:] + b'{"torn')
        before = log.path.read_bytes()
        assert log.scan().records == [] and log.records() == []
        assert log.path.read_bytes() == before

    def test_audit_fields_are_stripped_on_load(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        log.append({"epoch": 0, "status": "ok", "elapsed_s": 0.25,
                    "export_degraded": True})
        assert log.records()[0]["elapsed_s"] == 0.25  # the audit view
        assert log.recover() == [{"epoch": 0, "status": "ok"}]

    def test_line_codec_rejects_crc_mismatch(self):
        line = encode_line({"epoch": 9})
        assert decode_line(line) == {"epoch": 9}
        tampered = line.replace('"epoch":9', '"epoch":8')
        with pytest.raises(ValueError):
            decode_line(tampered)
