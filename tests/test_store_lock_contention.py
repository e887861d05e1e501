"""Cross-process partition-lock contention: REAL processes racing.

``test_store_lock.py`` pins the in-process lock semantics; these tests
put actual separate processes on the same store directory, because the
hazards the lock exists for -- a live foreign writer, a SIGKILLed
writer's leftover lockfile, a garbage lockfile from a crashed
half-write, a compaction folding the log a writer is appending to --
only manifest across process boundaries.
"""

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PartitionLockError
from repro.store import TelemetryStore
from repro.store import lock as lock_module
from repro.store.keys import SeriesKey
from repro.store.lock import LOCK_FILENAME, LOCK_SCHEMA

BUILDING = "b001"
KEY = SeriesKey(building=BUILDING, wall="w", node_id=0, metric="strain")


def _lock_path(root: Path) -> Path:
    return root / "segments" / BUILDING / LOCK_FILENAME


def _hold_lock_forever(root: str, ready, release):
    """Child: open a writer, ingest into the building, hold the lock."""
    store = TelemetryStore(root)
    writer = store.writer()
    writer.add(KEY, np.array([0.0]), np.array([1.0]))
    writer.flush()
    ready.set()
    release.wait(timeout=60)
    writer.close()


def _try_write(root: str, queue):
    """Child: attempt an ingest; report 'ok' or the error class name."""
    try:
        store = TelemetryStore(root)
        with store.writer() as writer:
            writer.add(KEY, np.array([100.0]), np.array([2.0]))
        queue.put("ok")
    except PartitionLockError:
        queue.put("PartitionLockError")
    except Exception as exc:  # pragma: no cover - diagnostic path
        queue.put(f"{type(exc).__name__}: {exc}")


@pytest.fixture
def mp_ctx():
    # fork keeps the children cheap and inherits the test's imports.
    return multiprocessing.get_context("fork")


class TestLiveForeignWriter:
    def test_second_process_writer_is_refused(
        self, tmp_path, mp_ctx, monkeypatch
    ):
        # The rival (forked after this) waits this long for the holder.
        monkeypatch.setattr(lock_module, "LOCK_WAIT_S", 0.5)
        root = tmp_path / "store"
        TelemetryStore(root)  # create the marker before the children race
        ready, release = mp_ctx.Event(), mp_ctx.Event()
        holder = mp_ctx.Process(
            target=_hold_lock_forever, args=(str(root), ready, release)
        )
        holder.start()
        try:
            assert ready.wait(timeout=30), "holder never acquired the lock"
            queue = mp_ctx.Queue()
            rival = mp_ctx.Process(target=_try_write, args=(str(root), queue))
            rival.start()
            assert queue.get(timeout=30) == "PartitionLockError"
            rival.join(timeout=30)
            # The holder's lockfile names the holder, not the rival.
            payload = json.loads(_lock_path(root).read_text())
            assert payload["pid"] == holder.pid
            assert payload["schema"] == LOCK_SCHEMA
        finally:
            release.set()
            holder.join(timeout=30)
        # Once the holder exits cleanly, the partition opens up again.
        assert not _lock_path(root).exists()
        store = TelemetryStore(root, create=False)
        with store.writer() as writer:
            writer.add(KEY, np.array([200.0]), np.array([3.0]))
        assert store.read(KEY)["t"].tolist() == [0.0, 200.0]


class TestDeadWriterReclaim:
    def test_sigkilled_writers_lock_reclaimed_by_next_process(
        self, tmp_path, mp_ctx
    ):
        root = tmp_path / "store"
        TelemetryStore(root)
        ready, release = mp_ctx.Event(), mp_ctx.Event()
        victim = mp_ctx.Process(
            target=_hold_lock_forever, args=(str(root), ready, release)
        )
        victim.start()
        assert ready.wait(timeout=30)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        assert _lock_path(root).exists()  # SIGKILL leaked the lockfile

        queue = mp_ctx.Queue()
        successor = mp_ctx.Process(target=_try_write, args=(str(root), queue))
        successor.start()
        assert queue.get(timeout=30) == "ok"
        successor.join(timeout=30)
        # The successor's rows landed after the victim's flushed ones.
        store = TelemetryStore(root, create=False)
        assert store.read(KEY)["t"].tolist() == [0.0, 100.0]


class TestGarbageLockfile:
    def test_unparseable_lockfile_reclaimed(self, tmp_path, mp_ctx):
        root = tmp_path / "store"
        TelemetryStore(root)
        lock = _lock_path(root)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("{not json")  # a crashed half-write

        queue = mp_ctx.Queue()
        writer_proc = mp_ctx.Process(target=_try_write, args=(str(root), queue))
        writer_proc.start()
        assert queue.get(timeout=30) == "ok"
        writer_proc.join(timeout=30)

    def test_lockfile_naming_a_dead_pid_reclaimed(self, tmp_path, mp_ctx):
        root = tmp_path / "store"
        TelemetryStore(root)
        # Burn a pid that is certainly dead by the time we use it.
        burner = mp_ctx.Process(target=time.sleep, args=(0,))
        burner.start()
        dead_pid = burner.pid
        burner.join(timeout=30)

        lock = _lock_path(root)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text(json.dumps(
            {"schema": LOCK_SCHEMA, "building": BUILDING, "pid": dead_pid}
        ))
        queue = mp_ctx.Queue()
        writer_proc = mp_ctx.Process(target=_try_write, args=(str(root), queue))
        writer_proc.start()
        assert queue.get(timeout=30) == "ok"
        writer_proc.join(timeout=30)


#: One-row durable flushes process A makes in the compaction race.
RACE_ROWS = 400


def _race(role, report, body):
    """Run one racer's ``body``; any exception is written to ``report``."""
    try:
        body()
    except BaseException as exc:  # pragma: no cover - asserted empty below
        Path(report).write_text(f"{role}: {type(exc).__name__}: {exc}")


def _race_writer(root, acked, done, report):
    """A: one writer context (and lock turn) per one-row durable flush."""
    def body():
        store = TelemetryStore(root, create=False)
        for i in range(RACE_ROWS):
            with store.writer() as writer:
                writer.add(KEY, np.array([float(i)]), np.array([i * 2.0]))
            acked.value = i + 1

    try:
        _race("writer", report, body)
    finally:
        done.set()


def _race_compactor(root, done, report):
    """B: compaction in a loop while the writer runs."""
    def body():
        store = TelemetryStore(root, create=False)
        while not done.is_set():
            store.compact()

    _race("compactor", report, body)


def _race_reader(root, acked, done, report, out):
    """C: reads in a loop; records (rows acknowledged before, rows read)."""
    seen = []

    def body():
        store = TelemetryStore(root, create=False)
        while not done.is_set():
            before = acked.value
            seen.append((before, store.read(KEY)["t"].tolist()))

    _race("reader", report, body)
    Path(out).write_text(json.dumps(seen))


class TestCompactionRace:
    def test_compaction_beside_a_writer_loses_nothing(self, tmp_path, mp_ctx):
        """A writer, a compaction loop and a reader in three processes:
        every acknowledged row survives, and every read is a prefix of
        the final series holding every row acknowledged before it."""
        root = str(tmp_path / "store")
        TelemetryStore(root)
        acked, done = mp_ctx.Value("i", 0), mp_ctx.Event()
        reports = [tmp_path / f"{role}.err" for role in ("a", "b", "c")]
        reads = tmp_path / "reads.json"
        procs = [
            mp_ctx.Process(target=_race_writer, args=(root, acked, done, reports[0])),
            mp_ctx.Process(target=_race_compactor, args=(root, done, reports[1])),
            mp_ctx.Process(
                target=_race_reader, args=(root, acked, done, reports[2], reads)
            ),
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert not any(proc.is_alive() for proc in procs)
        assert [p.read_text() for p in reports if p.exists()] == []
        assert acked.value == RACE_ROWS
        fresh = TelemetryStore(root, create=False)
        final = fresh.read(KEY)["t"].tolist()
        assert final == [float(i) for i in range(RACE_ROWS)]
        seen = json.loads(reads.read_text())
        assert seen, "the reader never read"
        for before, rows in seen:
            assert rows == final[: len(rows)]
            assert len(rows) >= before
        assert not fresh.quarantine_dir.exists()
