"""Tests for the campaign driver: determinism, crash/resume, supervision.

The central contract -- a campaign killed at *any* epoch and resumed
from its last checkpoint produces a final result byte-identical to an
uninterrupted run -- is exercised three ways here: an in-process
exception "crash", a real SIGINT through :class:`ShutdownGuard`, and a
genuine ``SIGKILL`` of a CLI subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CHECKPOINT_DIRNAME,
    EPOCH_LOG_FILENAME,
    RESULT_FILENAME,
    Campaign,
    CampaignConfig,
    EpochLog,
    EpochTimeout,
    campaign_status,
    result_hash,
    resume_campaign,
    run_campaign,
    watchdog_available,
)
from repro.cli import main
from repro.errors import CampaignError, CheckpointError
from repro.obs import observed

#: A campaign small enough to run in well under a second but with every
#: moving part engaged: faults, two storm windows, stuck sensors.
SMALL = dict(
    epochs=4,
    nodes=3,
    hours_per_epoch=24,
    seed=11,
    storm_period_epochs=2,
    storm_duration_epochs=1,
    epoch_timeout_s=0.0,
)


def small_config(**overrides):
    return CampaignConfig(**{**SMALL, **overrides})


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted in-memory run every crash variant must match."""
    outcome = run_campaign(small_config())
    assert outcome.completed
    return outcome


class _Crash(Exception):
    """Stand-in for a hard process death at a chosen epoch."""


def _crash_at(epoch):
    def hook(current):
        if current == epoch:
            raise _Crash(f"simulated crash at epoch {current}")

    return hook


class TestInMemoryRun:
    def test_runs_to_completion(self, reference):
        result = reference.result
        assert result.epochs_run == SMALL["epochs"]
        assert result.storm_epochs == (1, 3)
        assert [r["epoch"] for r in result.epoch_records] == [0, 1, 2, 3]
        assert all(r["status"] == "ok" for r in result.epoch_records)
        assert sum(result.grade_fractions.values()) == pytest.approx(1.0)
        assert 0.0 < result.mean_coverage <= 1.0
        assert not reference.interrupted
        assert reference.result_file is None  # in-memory: nothing on disk

    def test_same_config_same_bytes(self, reference):
        again = run_campaign(small_config())
        assert result_hash(again.result) == result_hash(reference.result)

    def test_seed_changes_the_result(self, reference):
        other = run_campaign(small_config(seed=12))
        assert result_hash(other.result) != result_hash(reference.result)


class TestPersistence:
    def test_state_dir_gets_checkpoints_log_and_result(
        self, tmp_path, reference
    ):
        state_dir = tmp_path / "pilot"
        outcome = run_campaign(small_config(), state_dir=state_dir)
        assert result_hash(outcome.result) == result_hash(reference.result)

        names = sorted(p.name for p in (state_dir / CHECKPOINT_DIRNAME).iterdir())
        assert "epoch-000000.json" in names  # the early-kill anchor
        assert "epoch-000004.json" in names

        records = EpochLog(state_dir / EPOCH_LOG_FILENAME).records()
        assert [r["epoch"] for r in records] == [0, 1, 2, 3]

        payload = json.loads((state_dir / RESULT_FILENAME).read_text())
        assert payload["schema"] == "repro/campaign-result/v1"
        assert payload["sha256"] == result_hash(outcome.result)
        assert outcome.result_file == state_dir / RESULT_FILENAME

    def test_status_of_a_completed_campaign(self, tmp_path):
        state_dir = tmp_path / "pilot"
        run_campaign(small_config(), state_dir=state_dir)
        status = campaign_status(state_dir)
        assert status["complete"] is True
        assert status["latest_checkpoint_epoch"] == SMALL["epochs"]
        assert status["verified_epoch"] == SMALL["epochs"]
        assert status["epochs_total"] == SMALL["epochs"]
        assert status["quarantined"] == []

    def test_status_of_an_empty_dir(self, tmp_path):
        status = campaign_status(tmp_path / "nowhere")
        assert status["latest_checkpoint_epoch"] is None
        assert status["complete"] is False


class TestCrashAndResume:
    @pytest.mark.parametrize("kill_epoch", [1, 2, 3])
    def test_resume_after_crash_is_byte_identical(
        self, tmp_path, reference, kill_epoch
    ):
        state_dir = tmp_path / "pilot"
        with pytest.raises(_Crash):
            run_campaign(
                small_config(), state_dir=state_dir,
                epoch_hook=_crash_at(kill_epoch),
            )
        assert not (state_dir / RESULT_FILENAME).exists()

        with observed() as scope:
            outcome = resume_campaign(state_dir)
            assert scope.registry.counter("campaign.resumes").value == 1.0
        assert outcome.completed
        assert outcome.resumed_from_epoch == kill_epoch
        assert result_hash(outcome.result) == result_hash(reference.result)

    def test_sigint_flushes_a_checkpoint_and_resume_finishes(
        self, tmp_path, reference
    ):
        state_dir = tmp_path / "pilot"

        def interrupt_at_2(epoch):
            if epoch == 2:
                os.kill(os.getpid(), signal.SIGINT)

        outcome = run_campaign(
            small_config(), state_dir=state_dir, epoch_hook=interrupt_at_2
        )
        # The guard lets the in-flight epoch finish, then stops cleanly.
        assert outcome.interrupted and not outcome.completed
        assert outcome.signal_name == "SIGINT"
        assert outcome.result is None
        assert outcome.state.epoch == 3

        resumed = resume_campaign(state_dir)
        assert resumed.resumed_from_epoch == 3
        assert result_hash(resumed.result) == result_hash(reference.result)

    def test_resume_with_nothing_there_is_loud(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            resume_campaign(tmp_path / "empty")

    def test_resume_with_every_checkpoint_corrupt_is_loud(self, tmp_path):
        state_dir = tmp_path / "pilot"
        run_campaign(small_config(), state_dir=state_dir)
        for path in (state_dir / CHECKPOINT_DIRNAME).glob("epoch-*.json"):
            path.write_text("rotted")
        with pytest.raises(CheckpointError, match="corrupt"):
            resume_campaign(state_dir)

    def test_corrupt_newest_checkpoint_rolls_back_and_still_matches(
        self, tmp_path, reference
    ):
        state_dir = tmp_path / "pilot"
        with pytest.raises(_Crash):
            run_campaign(
                small_config(), state_dir=state_dir, epoch_hook=_crash_at(3)
            )
        newest = state_dir / CHECKPOINT_DIRNAME / "epoch-000003.json"
        newest.write_text(newest.read_text()[:-40])  # torn write

        # status sees the rot but must not touch the file.
        status = campaign_status(state_dir)
        assert status["corrupt_checkpoints"]
        assert status["verified_epoch"] == 2
        assert newest.exists()

        # resume quarantines it, rolls back to epoch 2, replays, and the
        # final result is still byte-identical.
        outcome = resume_campaign(state_dir)
        assert outcome.resumed_from_epoch == 2
        assert result_hash(outcome.result) == result_hash(reference.result)
        quarantine = state_dir / CHECKPOINT_DIRNAME / ".quarantine"
        assert [p.name for p in quarantine.iterdir()] == ["epoch-000003.json"]
        # The replay re-wrote a *good* epoch-3 checkpoint in its place.
        from repro.campaign import CheckpointStore

        assert CheckpointStore(newest.parent).verify(newest)["epoch"] == 3


class TestAbandonedEpoch:
    """An epoch the watchdog abandons leaves no trace in state, however
    far it got: timing out in its last step must leave exactly the state
    of timing out before it drew anything."""

    @staticmethod
    def _timed_out_at_2(monkeypatch, where):
        if where == "hook":
            def hook(epoch):
                if epoch == 2:
                    raise EpochTimeout("abandoned before any work")

            return run_campaign(small_config(), epoch_hook=hook)
        grade = Campaign._epoch_grade

        def late(self, epoch, counts):
            if epoch == 2:
                raise EpochTimeout("abandoned after sampling and export")
            return grade(self, epoch, counts)

        monkeypatch.setattr(Campaign, "_epoch_grade", late)
        return run_campaign(small_config())

    def test_late_timeout_leaves_the_state_of_an_early_one(self, monkeypatch):
        early = self._timed_out_at_2(monkeypatch, "hook")
        late = self._timed_out_at_2(monkeypatch, "grade")
        assert late.result.timeouts == [2]
        assert late.result.epoch_records[2]["status"] == "epoch_timeout"
        # Three committed epochs of 24 hourly samples, none from epoch 2.
        assert late.result.hours.size == 3 * SMALL["hours_per_epoch"]
        assert not ((late.result.hours >= 48.0) & (late.result.hours < 72.0)).any()
        assert late.state.to_dict() == early.state.to_dict()
        assert result_hash(late.result) == result_hash(early.result)


class TestCheckpointSize:
    def _final_state(self, tmp_path, epochs):
        state_dir = tmp_path / f"e{epochs}"
        config = small_config(epochs=epochs, hours_per_epoch=168)
        run_campaign(config, state_dir=state_dir)
        path = state_dir / CHECKPOINT_DIRNAME / f"epoch-{epochs:06d}.json"
        return json.loads(path.read_text())["state"]

    def test_checkpoint_does_not_grow_with_samples(self, tmp_path):
        short = self._final_state(tmp_path, 4)
        long = self._final_state(tmp_path, 16)
        assert set(short) == set(long)
        assert len(long["epoch_records"]) == 16

        def boundary(state):
            return len(json.dumps(
                {k: v for k, v in state.items() if k != "epoch_records"}
            ))

        # Twelve more weeks of hourly samples would add ~100 KiB; the
        # rest of the state differs only by the digits of its counters.
        assert abs(boundary(long) - boundary(short)) < 1024


@pytest.mark.skipif(
    not watchdog_available(), reason="SIGALRM watchdog needs a main thread"
)
class TestWatchdog:
    def _hang_at(self, epoch, seconds=1.0):
        def hook(current):
            if current == epoch:
                time.sleep(seconds)

        return hook

    def test_hung_epoch_becomes_a_recorded_degradation(self):
        config = small_config(epoch_timeout_s=0.15)
        with observed() as scope:
            outcome = run_campaign(config, epoch_hook=self._hang_at(1))
            assert (
                scope.registry.counter("campaign.epoch_timeouts").value == 1.0
            )
        result = outcome.result
        assert outcome.completed  # the campaign survives its hung epoch
        assert result.timeouts == [1]
        assert result.epoch_records[1]["status"] == "epoch_timeout"
        assert result.epoch_records[1]["degraded"] is True
        assert result.degraded_epochs >= 1
        # Every other epoch still ran normally.
        assert [r["status"] for r in result.epoch_records].count("ok") == 3

    def test_timeouts_are_deterministic_too(self):
        config = small_config(epoch_timeout_s=0.15)
        first = run_campaign(config, epoch_hook=self._hang_at(1, 0.5))
        second = run_campaign(config, epoch_hook=self._hang_at(1, 0.5))
        assert result_hash(first.result) == result_hash(second.result)


class TestCli:
    ARGS = [
        "--epochs", "4", "--nodes", "3", "--hours-per-epoch", "24",
        "--seed", "11", "--storm-period", "2", "--storm-duration", "1",
    ]

    def test_run_status_and_refusal_to_clobber(
        self, tmp_path, capsys, reference
    ):
        state_dir = str(tmp_path / "pilot")
        assert main(["campaign", "run", "--state-dir", state_dir] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "campaign complete: 4 epoch(s)" in out
        assert result_hash(reference.result) in out

        assert main(["campaign", "status", "--state-dir", state_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True and status["verified_epoch"] == 4

        # A second `run` at the same dir must refuse, not overwrite.
        with pytest.raises(SystemExit, match="already holds a campaign"):
            main(["campaign", "run", "--state-dir", state_dir] + self.ARGS)

    def test_resume_of_nothing_exits_with_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "resume", "--state-dir", str(tmp_path / "no")])
        assert excinfo.value.code == 2
        assert "no such directory" in capsys.readouterr().err


class TestKillDashNine:
    """The real thing: SIGKILL a CLI campaign mid-epoch, resume, compare."""

    EPOCHS = 5

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        reference = run_campaign(small_config(epochs=self.EPOCHS))
        state_dir = tmp_path / "pilot"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--state-dir", str(state_dir),
                "--epochs", str(self.EPOCHS), "--nodes", "3",
                "--hours-per-epoch", "24", "--seed", "11",
                "--storm-period", "2", "--storm-duration", "1",
                "--epoch-sleep-s", "0.4",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Let it get at least one real epoch down, then kill -9 while
            # it is asleep inside epoch 2's hook -- mid-epoch by design.
            target = state_dir / CHECKPOINT_DIRNAME / "epoch-000002.json"
            deadline = time.monotonic() + 60.0
            while not target.exists():
                assert proc.poll() is None, "campaign exited before the kill"
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.02)
        finally:
            proc.kill()
        proc.wait(timeout=30)
        assert not (state_dir / RESULT_FILENAME).exists()

        status = campaign_status(state_dir)
        assert status["complete"] is False
        verified = status["verified_epoch"]
        assert 2 <= verified < self.EPOCHS

        # The operator's path: both verbs through the CLI entry point.
        argv = ["--state-dir", str(state_dir)]
        assert main(["campaign", "status", *argv]) == 0
        out = capsys.readouterr().out
        assert f"resume point:   epoch {verified} of {self.EPOCHS}" in out
        assert "complete: no" in out

        expected = result_hash(reference.result)
        assert main(["campaign", "resume", *argv]) == 0
        out = capsys.readouterr().out
        assert f"(resumed from epoch {verified})" in out
        assert f"result sha256: {expected}" in out
        written = json.loads((state_dir / RESULT_FILENAME).read_text())
        assert written["sha256"] == expected
