"""Property tests: arbitrary on-disk damage never yields a silently
wrong campaign result.

The recovery contract (ISSUE satellite): truncate or corrupt the
checkpoint/epoch-log files at *any* byte offset and a subsequent resume
must end in exactly one of two states -- a final result byte-identical
to the uninterrupted run (rollback + replay absorbed the damage), or an
explicit :class:`CheckpointError`/:class:`CampaignError` (nothing
trustworthy left).  A third state, "completed with different bytes",
is the one bug this file exists to rule out.
"""

import errno
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CHECKPOINT_DIRNAME,
    EPOCH_LOG_FILENAME,
    CampaignConfig,
    EpochLog,
    campaign_status,
    result_hash,
    resume_campaign,
    run_campaign,
)
from repro.errors import CampaignError, CheckpointError
from repro.faults.io import IoFaultInjector, IoFaultPlan

#: Tiny but fully-featured: faults on, one storm epoch, stuck sensors.
CONFIG = dict(
    epochs=3,
    nodes=2,
    hours_per_epoch=12,
    seed=23,
    storm_period_epochs=2,
    storm_duration_epochs=1,
    epoch_timeout_s=0.0,
)


class _Crash(Exception):
    pass


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    """A campaign killed at epoch 2, plus the uninterrupted reference."""
    reference = run_campaign(CampaignConfig(**CONFIG))

    def crash_at_2(epoch):
        if epoch == 2:
            raise _Crash

    state_dir = tmp_path_factory.mktemp("campaign") / "pilot"
    with pytest.raises(_Crash):
        run_campaign(
            CampaignConfig(**CONFIG), state_dir=state_dir,
            epoch_hook=crash_at_2,
        )
    return {
        "state_dir": state_dir,
        "reference_hash": result_hash(reference.result),
    }


def _damaged_copy(crashed, damage):
    """A throwaway copy of the crashed state dir with ``damage`` applied."""
    scratch = Path(tempfile.mkdtemp(prefix="campaign-recovery-"))
    state_dir = scratch / "pilot"
    shutil.copytree(crashed["state_dir"], state_dir)
    damage(state_dir)
    return scratch, state_dir


def _resume_must_not_lie(crashed, damage):
    """Resume after ``damage``: reference bytes or an explicit error."""
    scratch, state_dir = _damaged_copy(crashed, damage)
    try:
        try:
            outcome = resume_campaign(state_dir)
        except (CheckpointError, CampaignError):
            return "error"
        assert outcome.completed
        assert result_hash(outcome.result) == crashed["reference_hash"], (
            "resume after on-disk damage produced a DIFFERENT result -- "
            "silent divergence, the one forbidden outcome"
        )
        # The log is whole again: one record per epoch, in order.
        records = EpochLog(state_dir / EPOCH_LOG_FILENAME).records()
        assert [r["epoch"] for r in records] == list(range(CONFIG["epochs"]))
        return "recovered"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class TestTruncationNeverLies:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_newest_checkpoint_truncated_anywhere(self, crashed, data):
        newest = (
            crashed["state_dir"] / CHECKPOINT_DIRNAME / "epoch-000002.json"
        )
        offset = data.draw(
            st.integers(0, newest.stat().st_size), label="truncate_at"
        )

        def damage(state_dir):
            path = state_dir / CHECKPOINT_DIRNAME / "epoch-000002.json"
            path.write_bytes(path.read_bytes()[:offset])

        # Older checkpoints are intact, so rollback must always recover.
        assert _resume_must_not_lie(crashed, damage) == "recovered"

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_epoch_log_truncated_anywhere(self, crashed, data):
        log = crashed["state_dir"] / EPOCH_LOG_FILENAME
        offset = data.draw(
            st.integers(0, log.stat().st_size), label="truncate_at"
        )

        def damage(state_dir):
            path = state_dir / EPOCH_LOG_FILENAME
            path.write_bytes(path.read_bytes()[:offset])

        # The log holds the records the checkpoints do not: a shorter
        # log rolls resume back to the newest checkpoint it covers, and
        # the replay rewrites the cut records.  Checkpoint 0 is always
        # kept here, so every offset recovers.
        assert _resume_must_not_lie(crashed, damage) == "recovered"

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_every_checkpoint_truncated_at_once(self, crashed, data):
        checkpoints = sorted(
            (crashed["state_dir"] / CHECKPOINT_DIRNAME).glob("epoch-*.json")
        )
        offsets = {
            path.name: data.draw(
                st.integers(0, path.stat().st_size), label=path.name
            )
            for path in checkpoints
        }

        def damage(state_dir):
            for name, offset in offsets.items():
                path = state_dir / CHECKPOINT_DIRNAME / name
                path.write_bytes(path.read_bytes()[:offset])

        # With *all* checkpoints fair game the error outcome is legal
        # (every file damaged -> explicit CheckpointError); recovery is
        # legal too (some offsets == file size leave survivors).  Silent
        # divergence would fail inside the helper.
        assert _resume_must_not_lie(crashed, damage) in ("recovered", "error")


class TestByteFlipsNeverLie:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_newest_checkpoint_flipped_anywhere(self, crashed, data):
        newest = (
            crashed["state_dir"] / CHECKPOINT_DIRNAME / "epoch-000002.json"
        )
        size = newest.stat().st_size
        position = data.draw(st.integers(0, size - 1), label="position")
        value = data.draw(st.integers(0, 255), label="value")

        def damage(state_dir):
            path = state_dir / CHECKPOINT_DIRNAME / "epoch-000002.json"
            raw = bytearray(path.read_bytes())
            raw[position] = value
            path.write_bytes(bytes(raw))

        # A flip either breaks the JSON, breaks the sha256 (both ->
        # quarantine + rollback) or is a no-op rewrite of the same byte;
        # all three converge on the reference bytes.
        assert _resume_must_not_lie(crashed, damage) == "recovered"

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_epoch_log_flipped_anywhere(self, crashed, data):
        log = crashed["state_dir"] / EPOCH_LOG_FILENAME
        position = data.draw(st.integers(0, log.stat().st_size - 1), label="position")
        value = data.draw(st.integers(0, 255), label="value")

        def damage(state_dir):
            path = state_dir / EPOCH_LOG_FILENAME
            raw = bytearray(path.read_bytes())
            raw[position] = value
            path.write_bytes(bytes(raw))

        # A flipped line fails its CRC (or its JSON); resume rolls back
        # to the newest checkpoint before it and replays the lost epochs.
        assert _resume_must_not_lie(crashed, damage) == "recovered"


def _run_killed_at(config, kill_epoch, state_dir):
    def hook(epoch):
        if epoch == kill_epoch:
            raise _Crash

    with pytest.raises(_Crash):
        run_campaign(config, state_dir=state_dir, epoch_hook=hook)


def _flip_in_line(state_dir, line):
    """Flip one byte in the middle of the epoch log's ``line`` (0-based)."""
    path = state_dir / EPOCH_LOG_FILENAME
    lines = path.read_bytes().splitlines(keepends=True)
    damaged = bytearray(lines[line])
    damaged[len(damaged) // 2] ^= 0x20
    lines[line] = bytes(damaged)
    path.write_bytes(b"".join(lines))


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestLogDamageRollsBack:
    def test_damaged_early_line_is_replayed_not_lost(self, tmp_path):
        config = CampaignConfig(**dict(CONFIG, epochs=6))
        reference = run_campaign(config)
        state_dir = tmp_path / "pilot"
        _run_killed_at(config, 5, state_dir)
        _flip_in_line(state_dir, 1)

        outcome = resume_campaign(state_dir)
        # Rolled back past checkpoints 5 .. 2 to the one the log covers.
        assert outcome.resumed_from_epoch == 1
        assert result_hash(outcome.result) == result_hash(reference.result)
        records = EpochLog(state_dir / EPOCH_LOG_FILENAME).records()
        assert [r["epoch"] for r in records] == [0, 1, 2, 3, 4, 5]
        status = campaign_status(state_dir)
        assert status["log_records"] == 6 and status["verified_epoch"] == 6

    def test_damage_older_than_every_checkpoint_is_loud(self, tmp_path):
        config = CampaignConfig(**dict(CONFIG, epochs=8, checkpoint_keep=2))
        state_dir = tmp_path / "pilot"
        _run_killed_at(config, 6, state_dir)
        _flip_in_line(state_dir, 1)
        before = _tree(state_dir)
        assert sorted(p.name for p in (state_dir / CHECKPOINT_DIRNAME).iterdir()) == [
            "epoch-000005.json", "epoch-000006.json",
        ]

        status = campaign_status(state_dir)
        assert "verified_epoch" not in status and "checkpoint_error" in status
        with pytest.raises(CampaignError, match=(
            r"records stop after 1 epoch\(s\) \(.*CRC.*\), and every "
            r"checkpoint is newer than epoch 1"
        )):
            resume_campaign(state_dir)
        assert _tree(state_dir) == before


class _FailEpochLogReads(IoFaultInjector):
    """EIO on the first ``count`` reads of the epoch log; nothing else fires."""

    def __init__(self, count):
        super().__init__(IoFaultPlan(seed=0))
        self.count, self.failed = count, 0

    def read_bytes(self, path):
        if Path(path).name == EPOCH_LOG_FILENAME and self.failed < self.count:
            self.failed += 1
            raise OSError(errno.EIO, "injected read EIO", str(path))
        return super().read_bytes(path)


class TestEpochLogReadFaults:
    CONFIG = CampaignConfig(**dict(CONFIG, epochs=4))

    def test_one_eio_is_retried(self, tmp_path, monkeypatch):
        reference = run_campaign(self.CONFIG)
        state_dir = tmp_path / "pilot"
        _run_killed_at(self.CONFIG, 3, state_dir)
        injector = _FailEpochLogReads(1)
        monkeypatch.setattr("repro.faults.io._active", injector)
        outcome = resume_campaign(state_dir)
        assert injector.failed == 1
        assert outcome.resumed_from_epoch == 3
        assert result_hash(outcome.result) == result_hash(reference.result)

    def test_persistent_eio_is_loud_and_changes_nothing(self, tmp_path, monkeypatch):
        state_dir = tmp_path / "pilot"
        _run_killed_at(self.CONFIG, 3, state_dir)
        before = _tree(state_dir)
        injector = _FailEpochLogReads(100)
        monkeypatch.setattr("repro.faults.io._active", injector)
        with pytest.raises(CampaignError, match=f"cannot read .*{EPOCH_LOG_FILENAME}"):
            resume_campaign(state_dir)
        monkeypatch.setattr("repro.faults.io._active", None)
        assert injector.failed == 4  # the read and its three retries
        assert _tree(state_dir) == before
