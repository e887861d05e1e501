"""Fleet supervisor integration tests + the kill-schedule property.

The tentpole contract of ISSUE 8, stated as tests:

* the fleet ``result.json`` sha256 is invariant across worker counts,
  injected worker crashes, hangs caught by the heartbeat watchdog, and
  SIGKILL-and-resume of the supervisor itself;
* a poison shard is quarantined after ``max_restarts`` consecutive
  failures -- loudly (manifest, ``fleet status``, ``fleet.quarantines``
  counter, the result body's ``quarantined`` list) -- while every
  survivor completes byte-identically;
* the hypothesis property: *any* schedule of bounded kills and
  unbounded poisons yields either the clean hash or a loud quarantine
  whose merge is exactly the clean shard payloads minus the poisoned
  buildings -- never a silently different hash.

The merge/status helpers are unit-tested here too (no processes).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignConfig
from repro.cli import main
from repro.errors import FleetError
from repro.faults import WorkerFault, WorkerFaultPlan
from repro.fleet import (
    SHARDS_DIRNAME,
    FleetConfig,
    build_fleet_result,
    building_names,
    fleet_result_hash,
    fleet_status,
    heartbeat_age_s,
    load_shard_result,
    resume_fleet,
    run_fleet,
    write_heartbeat,
)
from repro.obs import observed, obs_registry

BUILDINGS = building_names(3)


def small_campaign(**kw):
    defaults = dict(
        epochs=2, nodes=2, hours_per_epoch=6,
        storm_period_epochs=2, storm_duration_epochs=1,
        epoch_timeout_s=30.0,
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


def small_fleet(**kw):
    defaults = dict(
        buildings=BUILDINGS, campaign=small_campaign(), workers=3,
        max_restarts=3, heartbeat_timeout_s=30.0,
        backoff_base_s=0.01, backoff_max_s=0.05,
    )
    defaults.update(kw)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """One clean 3-building run.  Everything else compares against its
    hash and rebuilds merge bodies from its verified shard payloads."""
    fleet_dir = tmp_path_factory.mktemp("clean") / "fleet"
    outcome = run_fleet(small_fleet(), fleet_dir)
    assert outcome.completed and not outcome.degraded
    payloads = {
        name: load_shard_result(fleet_dir / SHARDS_DIRNAME / name)
        for name in BUILDINGS
    }
    return {
        "sha256": outcome.sha256,
        "payloads": payloads,
        "fleet_dir": fleet_dir,
    }


def expected_hash(reference, quarantined):
    """The hash a degraded run must produce: the clean payloads minus
    the quarantined buildings (reasons never enter the body)."""
    survivors = {
        name: payload
        for name, payload in reference["payloads"].items()
        if name not in quarantined
    }
    body = build_fleet_result(
        small_fleet(), survivors,
        {name: "whatever operational reason" for name in quarantined},
    )
    return fleet_result_hash(body)


class TestHashInvariance:
    def test_single_worker_matches_pool(self, clean_reference, tmp_path):
        outcome = run_fleet(small_fleet(workers=1), tmp_path / "fleet")
        assert outcome.sha256 == clean_reference["sha256"]

    def test_kill_restart_is_byte_identical(self, clean_reference, tmp_path):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b002", 1, "kill", times=1),
        ))
        outcome = run_fleet(
            small_fleet(), tmp_path / "fleet", worker_faults=plan
        )
        assert outcome.sha256 == clean_reference["sha256"]
        assert not outcome.degraded
        manifest = json.loads(
            (tmp_path / "fleet" / "fleet.json").read_text()
        )
        assert manifest["supervision"]["restarts"] >= 1
        assert manifest["shards"]["b002"]["failures_total"] == 1

    def test_hang_is_caught_by_heartbeat_and_recovered(
        self, clean_reference, tmp_path
    ):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b001", 1, "hang", times=1),
        ))
        outcome = run_fleet(
            small_fleet(heartbeat_timeout_s=1.0),
            tmp_path / "fleet",
            worker_faults=plan,
        )
        assert outcome.sha256 == clean_reference["sha256"]
        manifest = json.loads(
            (tmp_path / "fleet" / "fleet.json").read_text()
        )
        assert manifest["supervision"]["heartbeat_kills"] >= 1
        assert any(
            "heartbeat gap" in reason
            for reason in manifest["shards"]["b001"]["failures"]
        )

    def test_sigkilled_supervisor_resumes_identically(
        self, clean_reference, tmp_path, capsys
    ):
        fleet_dir = tmp_path / "fleet"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "fleet", "run",
                "--fleet-dir", str(fleet_dir),
                "--buildings", "3", "--workers", "3",
                "--epochs", "2", "--nodes", "2", "--hours-per-epoch", "6",
                "--storm-period-epochs", "2", "--storm-duration-epochs", "1",
                "--epoch-timeout-s", "30",
                "--backoff-base-s", "0.01", "--backoff-max-s", "0.05",
                "--epoch-sleep-s", "0.4",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 30.0
            while not (fleet_dir / "fleet.json").exists():
                assert time.time() < deadline, "fleet never wrote a manifest"
                assert proc.poll() is None, "fleet exited prematurely"
                time.sleep(0.05)
            time.sleep(0.6)  # let workers get into their first epochs
        finally:
            proc.kill()
            proc.wait()
        argv = ["--fleet-dir", str(fleet_dir)]
        assert main(["fleet", "status", *argv]) == 0
        out = capsys.readouterr().out
        assert "3 building(s) on 3 worker(s)" in out
        assert "complete: no" in out
        expected = clean_reference["sha256"]
        assert main(["fleet", "resume", *argv]) == 0
        assert f"result sha256: {expected}" in capsys.readouterr().out
        written = json.loads((fleet_dir / "result.json").read_text())
        assert written["sha256"] == expected


class TestQuarantine:
    def test_poison_shard_degrades_loudly(self, clean_reference, tmp_path):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b002", 1, "poison"),
        ))
        with observed():
            outcome = run_fleet(
                small_fleet(max_restarts=2),
                tmp_path / "fleet",
                worker_faults=plan,
            )
            counters = obs_registry().snapshot()["counters"]

        # The survivors completed deterministically...
        assert outcome.completed and outcome.degraded
        assert sorted(outcome.quarantined) == ["b002"]
        assert outcome.sha256 == expected_hash(clean_reference, {"b002"})
        assert outcome.result["quarantined"] == ["b002"]
        assert outcome.result["totals"]["completed"] == 2
        # ...and the loss is recorded everywhere an operator looks.
        assert counters["fleet.quarantines"] == 1
        assert counters["fleet.worker_failures"] == 2
        manifest = json.loads(
            (tmp_path / "fleet" / "fleet.json").read_text()
        )
        entry = manifest["shards"]["b002"]
        assert entry["status"] == "quarantined"
        assert "2 consecutive failures" in entry["quarantine_reason"]
        status = fleet_status(tmp_path / "fleet")
        assert status["summary"] == {
            "healthy": 2, "recovering": 0, "quarantined": 1,
            "completed": 2, "running": 0, "pending": 0,
        }
        assert status["shards"]["b002"]["status"] == "quarantined"

    def test_resume_gives_a_quarantined_shard_a_fresh_budget(
        self, clean_reference, tmp_path
    ):
        # Poison that expires after 2 attempts: the first run quarantines
        # at max_restarts=2, but a fleet resume resets the consecutive
        # counter, attempt 2 runs clean, and the fleet converges on the
        # clean hash.
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b003", 0, "poison", times=2),
        ))
        first = run_fleet(
            small_fleet(max_restarts=2),
            tmp_path / "fleet",
            worker_faults=plan,
        )
        assert sorted(first.quarantined) == ["b003"]
        second = resume_fleet(tmp_path / "fleet")
        assert not second.degraded
        assert second.sha256 == clean_reference["sha256"]


class TestKillScheduleProperty:
    """Any kill schedule: byte-identical result or loud quarantine."""

    fault_choice = st.one_of(
        st.none(),
        st.tuples(st.just("kill"), st.integers(0, 1), st.integers(1, 2)),
        st.tuples(st.just("poison"), st.integers(0, 1)),
    )

    @given(choices=st.tuples(fault_choice, fault_choice, fault_choice))
    @settings(max_examples=5, deadline=None)
    def test_any_schedule_is_identical_or_loud(
        self, clean_reference, choices
    ):
        faults, poisoned = [], set()
        for building, choice in zip(BUILDINGS, choices):
            if choice is None:
                continue
            if choice[0] == "kill":
                # times <= 2 < max_restarts=3: always recovers.
                faults.append(
                    WorkerFault(building, choice[1], "kill", times=choice[2])
                )
            else:
                faults.append(WorkerFault(building, choice[1], "poison"))
                poisoned.add(building)
        tmp = Path(tempfile.mkdtemp(prefix="fleet-prop-"))
        try:
            outcome = run_fleet(
                small_fleet(),
                tmp / "fleet",
                worker_faults=WorkerFaultPlan(tuple(faults)),
            )
        finally:
            shutil.rmtree(tmp)
        assert outcome.completed
        assert set(outcome.quarantined) == poisoned
        assert outcome.result["quarantined"] == sorted(poisoned)
        if poisoned:
            assert outcome.sha256 == expected_hash(clean_reference, poisoned)
        else:
            assert outcome.sha256 == clean_reference["sha256"]


class TestMerge:
    def test_merge_order_is_canonical(self, clean_reference):
        payloads = clean_reference["payloads"]
        forward = build_fleet_result(small_fleet(), dict(payloads), {})
        reversed_insert = build_fleet_result(
            small_fleet(),
            dict(sorted(payloads.items(), reverse=True)),
            {},
        )
        assert list(forward["buildings"]) == sorted(BUILDINGS)
        assert fleet_result_hash(forward) == fleet_result_hash(
            reversed_insert
        )

    def test_incomplete_coverage_refused(self, clean_reference):
        payloads = dict(clean_reference["payloads"])
        payloads.pop("b002")
        with pytest.raises(FleetError, match="incomplete fleet"):
            build_fleet_result(small_fleet(), payloads, {})

    def test_completed_and_quarantined_overlap_refused(self, clean_reference):
        with pytest.raises(FleetError, match="both completed and quarantined"):
            build_fleet_result(
                small_fleet(),
                clean_reference["payloads"],
                {"b001": "but it also finished?"},
            )

    def test_unknown_building_refused(self, clean_reference):
        payloads = dict(clean_reference["payloads"])
        payloads["zz-not-ours"] = payloads["b001"]
        with pytest.raises(FleetError, match="not in the fleet roster"):
            build_fleet_result(small_fleet(), payloads, {})

    def test_missing_shard_result_is_none(self, tmp_path):
        assert load_shard_result(tmp_path / "nothing-here") is None

    def test_tampered_shard_result_fails_verification(
        self, clean_reference, tmp_path
    ):
        source = (
            clean_reference["fleet_dir"] / SHARDS_DIRNAME / "b001"
            / "result.json"
        )
        payload = json.loads(source.read_text())
        payload["result"]["epochs_run"] = 999  # bit-rot / hand edit
        shard_dir = tmp_path / "shard"
        shard_dir.mkdir()
        (shard_dir / "result.json").write_text(json.dumps(payload))
        with pytest.raises(FleetError, match="hash verification"):
            load_shard_result(shard_dir)

    def test_wrong_schema_refused(self, tmp_path):
        shard_dir = tmp_path / "shard"
        shard_dir.mkdir()
        (shard_dir / "result.json").write_text(
            json.dumps({"schema": "other/v9", "sha256": "x", "result": {}})
        )
        with pytest.raises(FleetError, match="not a campaign result"):
            load_shard_result(shard_dir)


class TestStatusAndGuards:
    def test_status_on_missing_dir_raises(self, tmp_path):
        with pytest.raises(FleetError, match="no fleet at"):
            fleet_status(tmp_path / "ghost")

    def test_run_refuses_a_used_directory(self, clean_reference):
        with pytest.raises(FleetError, match="already hosts a fleet"):
            run_fleet(small_fleet(), clean_reference["fleet_dir"])

    def test_resume_of_nothing_raises(self, tmp_path):
        with pytest.raises(FleetError, match="nothing to resume"):
            resume_fleet(tmp_path / "ghost")

    def test_heartbeat_round_trip(self, tmp_path):
        write_heartbeat(tmp_path, "b001", 3)
        age = heartbeat_age_s(tmp_path)
        assert age is not None and 0.0 <= age < 5.0
        payload = json.loads((tmp_path / "heartbeat.json").read_text())
        assert payload["building"] == "b001" and payload["epoch"] == 3
        assert heartbeat_age_s(tmp_path / "nope") is None


class TestFleetCli:
    def test_quarantine_exits_4_and_status_reports_it(
        self, tmp_path, capsys
    ):
        plan_file = tmp_path / "plan.json"
        WorkerFaultPlan(faults=(
            WorkerFault("b002", 0, "poison"),
        )).to_json_file(plan_file)
        code = main([
            "fleet", "run", "--fleet-dir", str(tmp_path / "fleet"),
            "--buildings", "3", "--workers", "3",
            "--epochs", "2", "--nodes", "2", "--hours-per-epoch", "6",
            "--storm-period-epochs", "2", "--storm-duration-epochs", "1",
            "--epoch-timeout-s", "30",
            "--max-restarts", "2",
            "--backoff-base-s", "0.01", "--backoff-max-s", "0.05",
            "--worker-faults", str(plan_file),
        ])
        out = capsys.readouterr().out
        assert code == 4
        assert "QUARANTINED b002" in out
        code = main([
            "fleet", "status", "--fleet-dir", str(tmp_path / "fleet"),
            "--json",
        ])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["summary"]["quarantined"] == 1
        assert status["complete"] is True
