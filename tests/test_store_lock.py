"""Partition-lock tests.

Two mutators must never work on the same building partition at once; a
live holder is waited for, up to a bound; a lock left by a dead pid
must be reclaimed loudly instead of wedging the partition forever.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import PartitionLockError
from repro.obs import observed, obs_registry
from repro.store import (
    LOCK_FILENAME,
    PartitionLock,
    SeriesKey,
    TelemetryStore,
    pid_alive,
)
from repro.store import lock as lock_module

KEY = SeriesKey("tower", "north", 1, "strain")


def _lock_path(store):
    return store.segments_dir / KEY.building / LOCK_FILENAME


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid())

    def test_nonsense_pids_are_dead(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)

    def test_unused_pid_is_dead(self):
        # Fork a child and reap it: its pid is guaranteed dead.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        assert not pid_alive(pid)


class TestPartitionLock:
    def test_acquire_writes_owner_pid(self, tmp_path):
        lock = PartitionLock(tmp_path, "tower").acquire()
        payload = json.loads((tmp_path / "tower" / LOCK_FILENAME).read_text())
        assert payload["pid"] == os.getpid()
        assert payload["building"] == "tower"
        lock.release()
        assert not (tmp_path / "tower" / LOCK_FILENAME).exists()

    def test_reacquire_by_same_holder_is_idempotent(self, tmp_path):
        lock = PartitionLock(tmp_path, "tower").acquire()
        assert lock.acquire() is lock
        lock.release()
        lock.release()  # idempotent

    def test_live_foreign_owner_refused(self, tmp_path):
        PartitionLock(tmp_path, "tower").acquire()
        # A second lock object simulates a second live process: the
        # lockfile's pid (ours) is alive, so acquisition must fail.
        with pytest.raises(PartitionLockError, match="locked by live pid"):
            PartitionLock(tmp_path, "tower").acquire()

    def test_dead_owner_reclaimed_loudly(self, tmp_path):
        path = tmp_path / "tower" / LOCK_FILENAME
        path.parent.mkdir(parents=True)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        path.write_text(json.dumps(
            {"schema": "repro/store-lock/v1", "building": "tower",
             "pid": pid}
        ))
        with observed():
            PartitionLock(tmp_path, "tower").acquire()
            snapshot = obs_registry().snapshot()
        assert snapshot["counters"]["store.locks_reclaimed"] == 1
        assert json.loads(path.read_text())["pid"] == os.getpid()

    def test_garbage_lockfile_reclaimed(self, tmp_path):
        path = tmp_path / "tower" / LOCK_FILENAME
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        PartitionLock(tmp_path, "tower").acquire()
        assert json.loads(path.read_text())["pid"] == os.getpid()


class TestWriterLocking:
    def test_writer_locks_partition_while_open(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            writer.add_sample(KEY, 0.0, 1.0)
            assert _lock_path(store).exists()
        assert not _lock_path(store).exists()

    def test_concurrent_writers_conflict_on_one_building(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            writer.add_sample(KEY, 0.0, 1.0)
            other = TelemetryStore(tmp_path, create=False).writer()
            with pytest.raises(PartitionLockError):
                other.add_sample(KEY, 1.0, 2.0)

    def test_different_buildings_do_not_conflict(self, tmp_path):
        store = TelemetryStore(tmp_path)
        other_key = SeriesKey("annex", "north", 1, "strain")
        with store.writer() as first:
            first.add_sample(KEY, 0.0, 1.0)
            with TelemetryStore(tmp_path, create=False).writer() as second:
                second.add_sample(other_key, 0.0, 1.0)

    def test_lock_released_even_when_writer_body_raises(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.writer() as writer:
                writer.add_sample(KEY, 0.0, 1.0)
                raise RuntimeError("epoch exploded")
        with store.writer() as writer:  # partition is free again
            writer.add_sample(KEY, 1.0, 2.0)

    def test_crashed_writer_lock_reclaimed_by_next_writer(self, tmp_path):
        store = TelemetryStore(tmp_path)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        lock_path = _lock_path(store)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(json.dumps(
            {"schema": "repro/store-lock/v1",
             "building": KEY.building, "pid": pid}
        ))
        with store.writer() as writer:
            writer.add_sample(KEY, 0.0, 1.0)
        assert store.read(KEY)["t"].size == 1


class TestWaitingForTheHolder:
    def _hold_on_another_thread(self, path, building, seconds):
        held, release = threading.Event(), threading.Event()

        def hold():
            lock = PartitionLock(path, building).acquire()
            held.set()
            release.wait(seconds)
            lock.release()

        thread = threading.Thread(target=hold)
        thread.start()
        assert held.wait(10)
        return thread, release

    def test_acquire_waits_for_a_holder_that_lets_go(self, tmp_path):
        thread, release = self._hold_on_another_thread(tmp_path, "tower", 0.2)
        began = time.monotonic()
        with observed():
            lock = PartitionLock(tmp_path, "tower").acquire()
            waits = obs_registry().snapshot()["counters"]["store.lock_waits"]
        assert time.monotonic() - began >= 0.1
        assert waits == 1
        lock.release()
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_mutators_never_proceed_without_the_lock(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(lock_module, "LOCK_WAIT_S", 0.2)
        store = TelemetryStore(tmp_path)
        for t in range(3):
            store.append(KEY, [float(t)], [1.0])
        log = store.commit_log(KEY.building).path
        before = log.read_bytes()
        thread, release = self._hold_on_another_thread(
            store.segments_dir, KEY.building, 30.0
        )
        try:
            with pytest.raises(PartitionLockError):
                store.compact()
            with pytest.raises(PartitionLockError):
                store.truncate_from(1.0)
            with pytest.raises(PartitionLockError):
                store.append(KEY, [5.0], [1.0])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert log.read_bytes() == before
        assert not (store.segments_dir / KEY.building / KEY.wall).exists()
        assert store.truncate_from(1.0) == 2
        assert store.compact()["folded_rows"] == 1
