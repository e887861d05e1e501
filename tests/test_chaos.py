"""Chaos drill runner tests: the recovered-or-loud oracle, mechanically.

Covers all three scenarios end to end (campaign / fleet / store), the
verdict taxonomy, the silent-corruption fixture (a flipped byte in the
drill's result must turn ``chaos verify`` red), the config pinning of a
drill directory, and the resumability contract: a drill SIGKILLed
mid-run converges -- on rerun -- to the same verdict an uninterrupted
control run produces.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ChaosError
from repro.faults.chaos import (
    CHAOS_MANIFEST_FILENAME,
    CHAOS_SCHEMA,
    ChaosConfig,
    evaluate_drill,
    run_drill,
    verify_drill,
)
from repro.faults.io import IoFaultPlan, clear_io_faults

#: Small-but-real workload shapes, shared across the scenario tests.
CAMPAIGN_CFG = dict(
    scenario="campaign", seed=5, epochs=2, nodes=2, hours_per_epoch=6,
    max_attempts=4,
)
STORE_CFG = dict(
    scenario="store", seed=5, buildings=2, batches=4, rows_per_batch=32,
    max_attempts=4,
)

MODERATE_PLAN = IoFaultPlan(
    seed=7, enospc_write_rate=0.05, eio_read_rate=0.02, eio_fsync_rate=0.03,
    torn_write_rate=0.05, drop_rename_rate=0.05,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    clear_io_faults()
    yield
    clear_io_faults()


class TestChaosConfig:
    def test_round_trip(self):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        assert ChaosConfig.from_dict(config.to_dict()) == config

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ChaosError, match="unknown scenario"):
            ChaosConfig(scenario="network")

    def test_unknown_field_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos config field"):
            ChaosConfig.from_dict({"scenario": "campaign", "bogus": 1})

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ChaosError):
            ChaosConfig(epochs=0)
        with pytest.raises(ChaosError):
            ChaosConfig(max_attempts=0)

    def test_attempt_plans_differ_per_attempt(self):
        config = ChaosConfig(plan=IoFaultPlan(seed=3, torn_write_rate=0.1))
        seeds = {config.attempt_plan(0, a).seed for a in range(4)}
        assert len(seeds) == 4
        assert config.attempt_plan(0, 1) != config.attempt_plan(1, 1)


class TestCampaignScenario:
    def test_faulted_drill_recovers_to_clean_sha(self, tmp_path):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        verdict = run_drill(tmp_path / "d", config)
        assert verdict["status"] in ("pass", "degraded")
        assert verdict["drill_sha256"] == verdict["clean_sha256"]
        assert sum(verdict["io"].values()) > 0  # the plan really fired
        # verify recomputes the same verdict from the artifacts alone
        assert verify_drill(tmp_path / "d")["status"] == verdict["status"]

    def test_no_faults_is_a_plain_pass(self, tmp_path):
        config = ChaosConfig(
            **CAMPAIGN_CFG, plan=IoFaultPlan(seed=1, torn_write_rate=0.0001)
        )
        verdict = run_drill(tmp_path / "d", config)
        if not verdict["accounted"]:
            assert verdict["status"] == "pass"

    def test_corrupted_drill_result_fails_verify(self, tmp_path):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        assert run_drill(tmp_path / "d", config)["status"] in (
            "pass", "degraded",
        )
        verify_argv = ["chaos", "verify", "--dir", str(tmp_path / "d")]
        assert main(verify_argv) == 0
        result = tmp_path / "d" / "drill" / "state" / "result.json"
        raw = bytearray(result.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        result.write_bytes(bytes(raw))
        assert main(verify_argv) == 1
        verdict = verify_drill(tmp_path / "d")
        assert verdict["status"] == "fail"
        # Depending on where the bit lands the file is either
        # unparseable or sha-mismatched -- both must read as corruption.
        assert any(
            "sha mismatch" in r or "unreadable" in r or "diverged" in r
            for r in verdict["reasons"]
        )

    def test_tampered_verdict_stamp_fails_verify(self, tmp_path):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        run_drill(tmp_path / "d", config)
        manifest_path = tmp_path / "d" / CHAOS_MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["verdict"]["drill_sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        verdict = verify_drill(tmp_path / "d")
        assert verdict["status"] == "fail"
        assert any("stamped verdict disagrees" in r for r in verdict["reasons"])

    def test_drill_dir_pins_its_config(self, tmp_path):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        run_drill(tmp_path / "d", config)
        other = dataclasses.replace(config, seed=config.seed + 1)
        with pytest.raises(ChaosError, match="different"):
            run_drill(tmp_path / "d", other)
        # Re-running with the same (or no) config is fine and idempotent.
        assert run_drill(tmp_path / "d")["status"] in ("pass", "degraded")

    def test_fresh_dir_needs_a_config(self, tmp_path):
        with pytest.raises(ChaosError, match="no drill"):
            run_drill(tmp_path / "missing")

    def test_verify_without_manifest_is_loud(self, tmp_path):
        with pytest.raises(ChaosError, match="unreadable chaos manifest"):
            verify_drill(tmp_path)


class TestStoreScenario:
    def test_faulted_ingest_recovers_or_accounts(self, tmp_path):
        config = ChaosConfig(
            **STORE_CFG,
            plan=IoFaultPlan(
                seed=11, enospc_write_rate=0.1, torn_write_rate=0.1,
                eio_fsync_rate=0.05, drop_rename_rate=0.1,
            ),
        )
        verdict = run_drill(tmp_path / "s", config)
        assert verdict["status"] in ("pass", "degraded", "loud")
        assert verify_drill(tmp_path / "s")["status"] == verdict["status"]

    def test_fabricated_rows_fail(self, tmp_path):
        import numpy as np

        from repro.store import TelemetryStore
        from repro.store.keys import SeriesKey

        config = ChaosConfig(**STORE_CFG, plan=MODERATE_PLAN)
        run_drill(tmp_path / "s", config)
        # Forge rows the clean store never wrote: subset check must trip.
        drill = TelemetryStore(tmp_path / "s" / "drill" / "store", create=False)
        key = SeriesKey(building="b001", wall="chaos", node_id=0, metric="value")
        drill.append(key, np.array([1e6]), np.array([42.0]))
        verdict = verify_drill(tmp_path / "s")
        assert verdict["status"] == "fail"


class TestFleetScenario:
    def test_faulted_fleet_recovers_or_quarantines(self, tmp_path):
        config = ChaosConfig(
            scenario="fleet", seed=3, epochs=2, nodes=2, hours_per_epoch=6,
            buildings=2, max_attempts=3,
            plan=IoFaultPlan(
                seed=13, enospc_write_rate=0.02, torn_write_rate=0.02,
                eio_fsync_rate=0.02,
            ),
        )
        verdict = run_drill(tmp_path / "f", config)
        assert verdict["status"] in ("pass", "degraded", "loud")
        if verdict["status"] in ("pass", "degraded") and not verdict.get(
            "quarantined"
        ):
            # Survived without losses: the fleet sha must equal clean's.
            assert verdict["drill_sha256"] == verdict["clean_sha256"]
        assert verify_drill(tmp_path / "f")["status"] == verdict["status"]


class TestEvaluateIsPure:
    def test_evaluate_does_not_mutate_artifacts(self, tmp_path):
        config = ChaosConfig(**CAMPAIGN_CFG, plan=MODERATE_PLAN)
        run_drill(tmp_path / "d", config)
        snapshot = {
            p: p.read_bytes()
            for p in sorted((tmp_path / "d").rglob("*"))
            if p.is_file()
        }
        evaluate_drill(tmp_path / "d")
        for path, before in snapshot.items():
            assert path.read_bytes() == before


class TestKilledDrillResumes:
    def test_sigkill_mid_drill_converges_to_control_verdict(self, tmp_path):
        """A drill killed mid-run must, on rerun, reach the same verdict
        an uninterrupted control reaches -- the chaos runner is itself
        crash-safe."""
        args_for = lambda d: [
            sys.executable, "-m", "repro.cli", "chaos", "run",
            "--dir", str(d), "--scenario", "campaign",
            "--seed", "5", "--epochs", "3", "--nodes", "2",
            "--hours-per-epoch", "6", "--max-attempts", "4",
            "--fault-seed", "7",
            "--enospc-write-rate", "0.1", "--torn-write-rate", "0.1",
            "--json",
        ]
        env = {**os.environ, "PYTHONPATH": str(
            Path(__file__).resolve().parents[1] / "src"
        )}

        control = subprocess.run(
            args_for(tmp_path / "control"), env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert control.returncode == 0, control.stderr
        control_verdict = json.loads(control.stdout)

        victim = subprocess.Popen(
            args_for(tmp_path / "victim"), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Let it get past manifest creation and into real work, then
        # kill it without ceremony.
        deadline = time.time() + 60.0
        manifest = tmp_path / "victim" / CHAOS_MANIFEST_FILENAME
        while time.time() < deadline and not manifest.exists():
            time.sleep(0.05)
        assert manifest.exists(), "drill never started"
        time.sleep(0.5)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        rerun = subprocess.run(
            args_for(tmp_path / "victim"), env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert rerun.returncode == 0, rerun.stderr
        rerun_verdict = json.loads(rerun.stdout)

        assert rerun_verdict["status"] == control_verdict["status"]
        assert (
            rerun_verdict["clean_sha256"] == control_verdict["clean_sha256"]
        )
        assert (
            rerun_verdict["drill_sha256"] == control_verdict["drill_sha256"]
        )
