"""Integration: campaign --store export, resume healing, and CLI verbs."""

import json

import numpy as np
import pytest

from repro.campaign import (
    STORE_BUILDING,
    STORE_WALL,
    Campaign,
    CampaignConfig,
    result_hash,
    resume_campaign,
    run_campaign,
)
from repro.cli import main
from repro.store import QueryEngine, SeriesKey, TelemetryStore

CONFIG = dict(
    epochs=4,
    nodes=3,
    hours_per_epoch=24,
    seed=11,
    epoch_timeout_s=0.0,
)


class TestCampaignExport:
    def test_structure_series_match_result(self, tmp_path):
        outcome = run_campaign(
            CampaignConfig(**CONFIG), store_dir=tmp_path / "tele"
        )
        store = TelemetryStore(tmp_path / "tele", create=False)
        accel = store.read(
            SeriesKey(STORE_BUILDING, STORE_WALL, 0, "acceleration")
        )
        assert np.array_equal(accel["t"], outcome.result.hours)
        assert np.array_equal(accel["value"], outcome.result.acceleration)
        stress = store.read(
            SeriesKey(STORE_BUILDING, STORE_WALL, 0, "stress_mpa")
        )
        assert np.array_equal(stress["value"], outcome.result.stress_mpa)

    def test_survey_reports_exported_per_epoch(self, tmp_path):
        run_campaign(CampaignConfig(**CONFIG), store_dir=tmp_path / "tele")
        store = TelemetryStore(tmp_path / "tele", create=False)
        strain_keys = [k for k in store.keys() if k.metric == "strain"]
        assert strain_keys, "no capsule strain series exported"
        for key in strain_keys:
            t = store.read(key)["t"]
            # Survey samples are stamped at epoch boundaries.
            assert set(t) <= {
                float(e * CONFIG["hours_per_epoch"])
                for e in range(CONFIG["epochs"])
            }

    def test_result_identical_with_and_without_store(self, tmp_path):
        with_store = run_campaign(
            CampaignConfig(**CONFIG), store_dir=tmp_path / "tele"
        )
        without = run_campaign(CampaignConfig(**CONFIG))
        assert result_hash(with_store.result) == result_hash(without.result)


class _Crash(Exception):
    pass


class TestResumeHealsStore:
    def test_replayed_epochs_not_duplicated(self, tmp_path):
        # Reference: uninterrupted run with a store.
        ref = run_campaign(
            CampaignConfig(**CONFIG), store_dir=tmp_path / "ref"
        )

        # Crashed run: dies at epoch 3 with checkpoints lagging the
        # store (interval 2), so epoch 2's exports must be truncated
        # and re-exported on resume.
        def crash(epoch):
            if epoch == 3:
                raise _Crash

        config = CampaignConfig(**CONFIG, checkpoint_interval=2)
        with pytest.raises(_Crash):
            Campaign(
                config, state_dir=tmp_path / "state",
                epoch_hook=crash, store_dir=tmp_path / "tele",
            ).run()
        outcome = resume_campaign(
            tmp_path / "state", store_dir=tmp_path / "tele"
        )
        assert outcome.completed
        assert result_hash(outcome.result) == result_hash(ref.result)

        healed = TelemetryStore(tmp_path / "tele", create=False)
        reference = TelemetryStore(tmp_path / "ref", create=False)
        assert healed.keys() == reference.keys()
        for key in reference.keys():
            a, b = reference.read(key), healed.read(key)
            assert np.array_equal(a["t"], b["t"]), key
            assert np.array_equal(a["value"], b["value"]), key


@pytest.fixture()
def cli_store(tmp_path):
    """A store populated through the real CLI campaign verb."""
    store_dir = tmp_path / "tele"
    code = main([
        "campaign", "run",
        "--state-dir", str(tmp_path / "state"),
        "--store", str(store_dir),
        "--epochs", "3", "--nodes", "3",
        "--hours-per-epoch", "24", "--epoch-timeout-s", "0",
    ])
    assert code == 0
    return store_dir


class TestCliVerbs:
    def test_compact_query_stats(self, cli_store, capsys):
        assert main(["store", "compact", "--store", str(cli_store)]) == 0
        capsys.readouterr()
        assert main([
            "store", "query", "--store", str(cli_store),
            "--metric", "acceleration", "--agg", "count", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 72.0
        assert main(["store", "stats", "--store", str(cli_store)]) == 0
        out = capsys.readouterr().out
        assert "acceleration" in out and "series" in out

    def test_query_rollup_matches_engine(self, cli_store, capsys):
        main(["store", "compact", "--store", str(cli_store)])
        capsys.readouterr()
        assert main([
            "store", "query", "--store", str(cli_store),
            "--metric", "stress_mpa", "--agg", "mean",
            "--resolution", "daily", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        engine = QueryEngine(TelemetryStore(cli_store, create=False))
        want = engine.aggregate("stress_mpa", "mean", resolution="daily")
        assert want["series"] > 0
        assert payload == json.loads(json.dumps(want))

    def test_health_verb(self, cli_store, capsys):
        assert main([
            "store", "health", "--store", str(cli_store),
            "--building", STORE_BUILDING, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == STORE_BUILDING
        assert [w["wall"] for w in payload["walls"]] == [STORE_WALL]

    def test_ingest_verb_round_trips_result(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        assert main([
            "campaign", "run", "--state-dir", str(state_dir),
            "--epochs", "2", "--nodes", "2",
            "--hours-per-epoch", "12", "--epoch-timeout-s", "0",
        ]) == 0
        store_dir = tmp_path / "tele"
        assert main([
            "store", "ingest", "--store", str(store_dir),
            str(state_dir / "result.json"),
        ]) == 0
        store = TelemetryStore(store_dir, create=False)
        result = json.loads((state_dir / "result.json").read_text())
        accel = store.read(
            SeriesKey(STORE_BUILDING, STORE_WALL, 0, "acceleration")
        )
        assert accel["value"].tolist() == result["result"]["acceleration"]

    def test_read_only_verbs_refuse_missing_store(self, tmp_path):
        for verb in (["compact"], ["stats"], ["query", "--metric", "x"]):
            with pytest.raises(SystemExit):
                main(["store", *verb, "--store", str(tmp_path / "ghost")])

    def test_run_rejects_store_clash_free(self, tmp_path):
        # --store without --state-dir still exports (in-memory campaign).
        store_dir = tmp_path / "tele"
        assert main([
            "campaign", "run", "--store", str(store_dir),
            "--epochs", "2", "--nodes", "2",
            "--hours-per-epoch", "12", "--epoch-timeout-s", "0",
        ]) == 0
        assert TelemetryStore(store_dir, create=False).keys()
