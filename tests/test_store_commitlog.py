"""The per-building commit log: one record per flush, folded into segments.

Property tests mirror ``test_store_recovery.py`` on a store whose
blocks live only in its commit log: truncate or byte-flip the log
anywhere and a read ends intact, loud, or -- for a truncation -- on a
prefix that stops at a record boundary.  A crash at any step of a fold
loses nothing and applies nothing twice; a power cut that keeps only
the fsynced log bytes keeps every acknowledged row; and any interleaving
of flushes, folds, compactions and ``truncate_from`` reads exactly like
the same store fully folded.  The append-path tests pin what a flush
costs: one commit-log record, one fsync.  A store written before the
commit log (block journals, version-1 manifests) is refused on its first
access and left exactly as it was.
"""

import errno
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import SegmentError, StoreError
from repro.faults.io import IoFaultInjector, IoFaultPlan
from repro.obs import MetricsRegistry, obs_registry, observed
from repro.runtime import crclog
from repro.serve import EndpointCore
from repro.store import RESOLUTIONS, SeriesKey, TelemetryStore
from repro.store import commitlog
from repro.store import store as store_module
from repro.store.commitlog import HEADER_SIZE, LOG_FILENAME
from repro.store.compact import ROLLUP_COLUMNS
from repro.store.segment import (
    MANIFEST_FILENAME,
    RAW,
    RAW_COLUMNS,
    SEGMENT_SCHEMA,
    encode_block,
)

KEY = SeriesKey("b", "w", 1, "strain")
OTHER = SeriesKey("b", "w", 2, "rh")
KEYS = (KEY, OTHER)

#: Three flushes of 8 rows to each of the two series: three records.
BLOCK_ROWS = 8
RECORDS = 3


def _block(b, key=KEY):
    t = np.arange(b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS, dtype=float)
    return t, t * 10.0 + b + (0.5 if key == OTHER else 0.0)


def _flush(store, b, keys=KEYS):
    with store.writer() as writer:
        for key in keys:
            writer.add(key, *_block(b, key))


def _log(root, building="b"):
    return Path(root) / "segments" / building / LOG_FILENAME


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("commitlog") / "tele"
    store = TelemetryStore(root)
    for b in range(RECORDS):
        _flush(store, b)
    data = {key: store.read(key) for key in KEYS}
    return {"root": root, "data": data}


def _copy(pristine):
    scratch = Path(tempfile.mkdtemp(prefix="store-commitlog-"))
    root = scratch / "tele"
    shutil.copytree(pristine["root"], root)
    return scratch, root


def _records_read(pristine, root):
    """Records' worth of rows a fresh store reads; wrong values fail."""
    store = TelemetryStore(root, create=False)
    counts = set()
    for key in KEYS:
        data = store.read(key)
        expected = pristine["data"][key]
        n = data["t"].size
        assert n % BLOCK_ROWS == 0, "a read stopped inside a block"
        assert np.array_equal(data["t"], expected["t"][:n]) and np.array_equal(
            data["value"], expected["value"][:n]
        ), "a damaged log returned DIFFERENT values without raising"
        counts.add(n // BLOCK_ROWS)
    assert len(counts) == 1, "a read split a record"
    return counts.pop()


def _outcome(pristine, damage):
    """``"intact"``, ``"prefix"`` or ``"loud"`` -- never wrong values."""
    scratch, root = _copy(pristine)
    try:
        damage(root)
        try:
            records = _records_read(pristine, root)
        except (SegmentError, StoreError):
            return "loud"
        return "intact" if records == RECORDS else "prefix"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class TestLogDamage:
    def test_pristine_store_is_logged_only(self, pristine):
        building = pristine["root"] / "segments" / "b"
        assert sorted(p.name for p in building.iterdir()) == [LOG_FILENAME]
        view = commitlog.parse(_log(pristine["root"]).read_bytes())
        assert [r.seq for r in view.records] == [1, 2, 3]
        assert view.rows == RECORDS * len(KEYS) * BLOCK_ROWS

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_anywhere(self, pristine, data):
        raw = _log(pristine["root"]).read_bytes()
        offset = data.draw(st.integers(0, len(raw)), label="truncate_at")
        ends = [r.start for r in commitlog.parse(raw).records[1:]] + [len(raw)]
        complete = sum(end <= offset for end in ends)

        def damage(root):
            _log(root).write_bytes(raw[:offset])

        expected = "intact" if complete == RECORDS else "prefix"
        assert _outcome(pristine, damage) == expected
        if complete < RECORDS:
            scratch, root = _copy(pristine)
            try:
                _log(root).write_bytes(raw[:offset])
                assert _records_read(pristine, root) == complete
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_flipped_anywhere(self, pristine, data):
        raw = _log(pristine["root"]).read_bytes()
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        value = data.draw(st.integers(0, 255), label="value")

        def damage(root):
            flipped = bytearray(raw)
            flipped[position] = value
            _log(root).write_bytes(bytes(flipped))

        expected = ("intact",) if raw[position] == value else ("loud",)
        assert _outcome(pristine, damage) in expected

    @pytest.mark.parametrize("junk", [b"X", b"RREX", b"not a record at all"])
    def test_bytes_after_the_last_record_are_loud(self, pristine, junk):
        scratch, root = _copy(pristine)
        try:
            with _log(root).open("ab") as handle:
                handle.write(junk)
            store = TelemetryStore(root, create=False)
            with pytest.raises(SegmentError, match="quarantined"):
                store.read(KEY)
            assert [p.name for p in store.quarantine_dir.iterdir()] == [
                f"b.{LOG_FILENAME}"
            ]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_append_after_truncation_heals(self, pristine, data):
        raw = _log(pristine["root"]).read_bytes()
        offset = data.draw(st.integers(0, len(raw)), label="truncate_at")
        scratch, root = _copy(pristine)
        try:
            _log(root).write_bytes(raw[:offset])
            kept = _records_read(pristine, root)
            with observed():
                _flush(TelemetryStore(root, create=False), RECORDS)
                counters = obs_registry().snapshot()["counters"]
            torn = offset not in [0] + [r.start for r in commitlog.parse(raw).records] + [len(raw)]
            assert counters.get("store.truncations", 0) == int(torn)
            store = TelemetryStore(root, create=False)
            for key in KEYS:
                after = store.read(key)
                expected = pristine["data"][key]["t"][: kept * BLOCK_ROWS]
                assert np.array_equal(
                    after["t"], np.append(expected, _block(RECORDS, key)[0])
                )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class _Crash(BaseException):
    """A process death: nothing after it runs, not even ``except OSError``."""


class _CrashAt(IoFaultInjector):
    """Dies at the ``at``-th write, fsync or rename (a write tears first)."""

    def __init__(self, at):
        super().__init__(IoFaultPlan(seed=0))
        self.at, self.ops = at, 0

    def _step(self):
        self.ops += 1
        return self.ops == self.at

    def write(self, handle, data):
        if self._step():
            handle.write(data[: len(data) // 2])
            handle.flush()
            raise _Crash(f"died writing {getattr(handle, 'name', '?')}")
        handle.write(data)

    def fsync(self, fileno, path=None):
        if self._step():
            raise _Crash(f"died before fsyncing {path}")
        os.fsync(fileno)

    def replace(self, src, dst):
        if self._step():
            raise _Crash(f"died before renaming {dst}")
        os.replace(src, dst)


class TestFoldCrash:
    def test_crash_at_every_step_loses_nothing_twice_nothing(
        self, pristine, monkeypatch
    ):
        counter = _CrashAt(at=0)
        scratch, root = _copy(pristine)
        try:
            monkeypatch.setattr("repro.faults.io._active", counter)
            TelemetryStore(root, create=False).compact()
        finally:
            monkeypatch.setattr("repro.faults.io._active", None)
            shutil.rmtree(scratch, ignore_errors=True)
        assert counter.ops > 20
        for at in range(1, counter.ops + 1):
            scratch, root = _copy(pristine)
            try:
                monkeypatch.setattr("repro.faults.io._active", _CrashAt(at))
                with pytest.raises(_Crash):
                    TelemetryStore(root, create=False).compact()
                monkeypatch.setattr("repro.faults.io._active", None)
                assert _records_read(pristine, root) == RECORDS, at
                store = TelemetryStore(root, create=False)
                store.compact()
                assert _records_read(pristine, root) == RECORDS, at
                for key in KEYS:
                    blocks = store.segment(key).file_entry()["blocks"]
                    # One block per fold, and nothing applied twice.
                    assert len(blocks) == 1, at
                    assert blocks[0]["n"] == RECORDS * BLOCK_ROWS, at
                    assert all("frame" not in block for block in blocks)
                assert not store.quarantine_dir.exists(), at
                assert _log(root).stat().st_size == HEADER_SIZE
            finally:
                shutil.rmtree(scratch, ignore_errors=True)


    def test_dropped_fold_rename_is_rewritten_not_lost(
        self, pristine, monkeypatch
    ):
        class DropFirstManifestRename(IoFaultInjector):
            def __init__(self):
                super().__init__(IoFaultPlan(seed=0, drop_rename_rate=1.0))
                self.dropped = 0

            def replace(self, src, dst):
                if Path(dst).name == MANIFEST_FILENAME and not self.dropped:
                    self.dropped += 1
                    return
                os.replace(src, dst)

        scratch, root = _copy(pristine)
        try:
            injector = DropFirstManifestRename()
            monkeypatch.setattr("repro.faults.io._active", injector)
            TelemetryStore(root, create=False).compact()
            monkeypatch.setattr("repro.faults.io._active", None)
            assert injector.dropped == 1
            # The fold read the manifest back, rewrote it, and only then
            # emptied the log.
            assert _log(root).stat().st_size == HEADER_SIZE
            assert _records_read(pristine, root) == RECORDS
            assert not (root / ".quarantine").exists()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class _PowerCut(IoFaultInjector):
    """Remembers how much of the commit log each fsync made durable."""

    def __init__(self):
        super().__init__(IoFaultPlan(seed=0))
        self.durable = 0

    def fsync(self, fileno, path=None):
        os.fsync(fileno)
        if path is not None and Path(path).name == LOG_FILENAME:
            self.durable = os.fstat(fileno).st_size


class TestPowerCut:
    @given(flushes=st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_fsynced_log_bytes_hold_every_acknowledged_row(self, flushes):
        scratch = Path(tempfile.mkdtemp(prefix="store-powercut-"))
        cut = _PowerCut()
        try:
            store = TelemetryStore(scratch / "tele")
            from repro.faults import io as io_module

            io_module._active = cut
            try:
                for b in range(flushes):
                    _flush(store, b)
            finally:
                io_module._active = None
            log = _log(scratch / "tele")
            with open(log, "r+b") as handle:
                handle.truncate(cut.durable)  # the page cache is gone
            fresh = TelemetryStore(scratch / "tele", create=False)
            for key in KEYS:
                expected = np.concatenate(
                    [_block(b, key)[0] for b in range(flushes)]
                )
                assert np.array_equal(fresh.read(key)["t"], expected)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class TestWritePath:
    def test_one_record_per_building_per_flush(self, tmp_path):
        store = TelemetryStore(tmp_path)
        annex = SeriesKey("annex", "w", 1, "strain")
        with store.writer() as writer:
            for key in (KEY, OTHER, annex):
                writer.add(key, *_block(0, key))
        for building, keys in (("b", 2), ("annex", 1)):
            view = commitlog.parse(_log(tmp_path, building).read_bytes())
            assert len(view.records) == 1
            assert len(view.records[0].entries) == keys

    def test_out_of_order_refused_folded_or_logged(self, tmp_path):
        store = TelemetryStore(tmp_path)
        store.append(KEY, [10.0], [1.0])
        store.compact()
        with pytest.raises(StoreError, match="out-of-order"):
            store.append(KEY, [5.0], [1.0])
        store.append(KEY, [20.0], [1.0])
        before = _log(tmp_path).read_bytes()
        with pytest.raises(StoreError, match="out-of-order"):
            with store.writer() as writer:
                writer.add(OTHER, [0.0], [1.0])
                writer.add(KEY, [15.0], [1.0])
        # A refused flush acknowledges nothing, the other series neither.
        assert _log(tmp_path).read_bytes() == before
        assert store.read(OTHER)["t"].size == 0
        assert store.read(KEY)["t"].tolist() == [10.0, 20.0]

    def test_failed_append_acknowledges_nothing(self, tmp_path, monkeypatch):
        store = TelemetryStore(tmp_path)
        _flush(store, 0)
        before = _log(tmp_path).read_bytes()
        failing = IoFaultInjector(IoFaultPlan(seed=1, eio_fsync_rate=1.0))
        monkeypatch.setattr("repro.faults.io._active", failing)
        with pytest.raises(OSError) as excinfo:
            _flush(store, 1)
        monkeypatch.setattr("repro.faults.io._active", None)
        assert excinfo.value.errno == errno.EIO
        assert _log(tmp_path).read_bytes() == before
        for key in KEYS:
            assert TelemetryStore(tmp_path).read(key)["t"].size == BLOCK_ROWS

    def test_retried_torn_write_heals_first(self, tmp_path, monkeypatch):
        class TearFirstLogWrite(IoFaultInjector):
            def __init__(self):
                super().__init__(IoFaultPlan(seed=0))
                self.torn = 0

            def write(self, handle, data):
                if Path(handle.name).name == LOG_FILENAME and not self.torn:
                    self.torn += 1
                    handle.write(data[:7])
                    raise OSError(errno.EIO, "torn", handle.name)
                handle.write(data)

        store = TelemetryStore(tmp_path)
        _flush(store, 0)
        tear = TearFirstLogWrite()
        monkeypatch.setattr("repro.faults.io._active", tear)
        _flush(store, 1)
        monkeypatch.setattr("repro.faults.io._active", None)
        assert tear.torn == 1
        view = commitlog.parse(_log(tmp_path).read_bytes())
        assert [r.seq for r in view.records] == [1, 2] and not view.torn

    def test_retried_flush_commits_only_what_failed(self, tmp_path, monkeypatch):
        store = TelemetryStore(tmp_path)
        first, second = (SeriesKey(b, "w", 1, "strain") for b in ("bA", "bB"))
        real = commitlog.CommitLog.append
        failed = []

        def append(log, view, series):
            if log.path.parent.name == "bB" and not failed:
                failed.append(log.path)
                raise OSError(errno.ENOSPC, "injected ENOSPC", str(log.path))
            return real(log, view, series)

        monkeypatch.setattr(commitlog.CommitLog, "append", append)
        writer = store.writer()
        try:
            writer.add_sample(first, 1.0, 1.0)
            writer.add_sample(second, 1.0, 2.0)
            with pytest.raises(OSError):
                writer.flush()  # bA's record is acknowledged, bB's is not
            assert writer.flush() == 1
        finally:
            writer.close()
        fresh = TelemetryStore(tmp_path, create=False)
        assert fresh.read(first)["t"].tolist() == [1.0]
        assert fresh.read(second)["t"].tolist() == [1.0]

    def test_log_past_the_threshold_is_folded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "FOLD_BYTES", 600)
        store = TelemetryStore(tmp_path)
        sizes = []
        for b in range(4):
            _flush(store, b)
            sizes.append(_log(tmp_path).stat().st_size)
        assert HEADER_SIZE in sizes  # a flush folded what it grew
        assert max(sizes) <= 600 + 2 * (sizes[0] - HEADER_SIZE)
        for key in KEYS:
            assert store.read(key)["t"].size == 4 * BLOCK_ROWS
            assert store.segment(key).seg_path.exists()

    def test_keys_stats_and_compaction_see_logged_series(self, tmp_path):
        store = TelemetryStore(tmp_path)
        for b in range(2):
            _flush(store, b)
        size = _log(tmp_path).stat().st_size
        assert store.keys() == sorted(KEYS)
        stats = store.stats()
        assert stats["logs"] == {
            "b": {"records": 2, "rows": 4 * BLOCK_ROWS, "bytes": size}
        }
        assert stats["totals"]["raw"]["rows"] == 4 * BLOCK_ROWS
        assert stats["totals"]["raw"]["blocks"] == 4
        summary = store.compact()
        assert summary["folded_rows"] == summary["raw_rows"] == 4 * BLOCK_ROWS
        after = store.stats()
        assert after["logs"] == {
            "b": {"records": 0, "rows": 0, "bytes": HEADER_SIZE}
        }
        assert after["totals"]["raw"]["rows"] == 4 * BLOCK_ROWS
        assert after["totals"]["raw"]["blocks"] == len(KEYS)  # one per fold
        assert store.compact()["folded_rows"] == 0


class TestAppendPath:
    def test_append_does_not_rewrite_the_manifest(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        store.compact()
        manifest = store.segments_dir / KEY.relpath / MANIFEST_FILENAME
        before = (manifest.read_bytes(), manifest.stat().st_ino)
        for b in range(1, 5):
            store.append(KEY, *_block(b))
        assert (manifest.read_bytes(), manifest.stat().st_ino) == before
        assert store.read(KEY)["t"].size == 5 * BLOCK_ROWS

    def test_append_parses_only_its_own_record(self, tmp_path, monkeypatch):
        store = TelemetryStore(tmp_path / "s")
        for b in range(4):
            store.append(KEY, *_block(b))
        decoded = []
        real = commitlog._decode_body
        monkeypatch.setattr(
            commitlog, "_decode_body",
            lambda body: (decoded.append(1), real(body))[1],
        )
        store.append(KEY, *_block(4))
        monkeypatch.undo()
        assert len(decoded) == 1  # the log's first four records: reused
        assert store.read(KEY)["t"].size == 5 * BLOCK_ROWS

    def test_steady_state_fsyncs(self, tmp_path, monkeypatch):
        store = TelemetryStore(tmp_path / "s")
        _flush(store, 0)
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        _flush(TelemetryStore(tmp_path / "s", create=False), 1)
        # One commit record for both series: no segment, manifest or
        # directory fsync.
        assert len(calls) == 1

    def test_reader_leaves_a_torn_tail_for_the_writer(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        log = _log(store.root)
        frame, meta = encode_block(RAW_COLUMNS, list(_block(1)))
        record = commitlog.encode_record(2, [("w/n00001/strain", frame, meta)])
        torn = log.read_bytes() + record[:len(record) // 2]
        log.write_bytes(torn)
        assert TelemetryStore(store.root).read(KEY)["t"].size == BLOCK_ROWS
        assert log.read_bytes() == torn  # readers never mutate
        store.append(KEY, *_block(1))
        assert store.read(KEY)["t"].size == 2 * BLOCK_ROWS
        assert TelemetryStore(store.root).read(KEY)["t"].size == 2 * BLOCK_ROWS
        assert log.stat().st_size < len(torn) + len(record)


class TestTruncateFrom:
    def test_nothing_to_cut_leaves_the_log_untouched(self, tmp_path):
        store = TelemetryStore(tmp_path)
        for b in range(2):
            _flush(store, b)
        before = (_log(tmp_path).read_bytes(), _log(tmp_path).stat().st_ino)
        assert store.truncate_from(2.0 * BLOCK_ROWS, keys=list(KEYS)) == 0
        assert (_log(tmp_path).read_bytes(), _log(tmp_path).stat().st_ino) == before
        assert not (tmp_path / "segments" / "b" / "w").exists()  # no fold

    def test_trailing_records_are_cut_without_a_fold(self, tmp_path):
        store = TelemetryStore(tmp_path)
        for b in range(3):
            _flush(store, b)
        raw = _log(tmp_path).read_bytes()
        start = commitlog.parse(raw).records[1].start
        assert store.truncate_from(1.0 * BLOCK_ROWS, keys=list(KEYS)) == 4 * BLOCK_ROWS
        assert _log(tmp_path).read_bytes() == raw[:start]
        assert not (tmp_path / "segments" / "b" / "w").exists()
        _flush(store, 1)  # the replay appends the same record again
        assert _log(tmp_path).read_bytes() == raw[: commitlog.parse(raw).records[2].start]

    def test_cuts_only_the_given_keys(self, tmp_path):
        """Campaigns sharing a partition keep each other's rows."""
        store = TelemetryStore(tmp_path)
        mine, theirs = SeriesKey("b", "mine", 0, "m"), SeriesKey("b", "theirs", 0, "m")
        for b in range(3):
            _flush(store, b, keys=(mine, theirs))
        assert store.truncate_from(1.0 * BLOCK_ROWS + 3, keys=[mine]) == 13
        assert store.read(mine)["t"].tolist() == list(np.arange(11.0))
        assert store.read(theirs)["t"].size == 3 * BLOCK_ROWS


#: One step of the interleaving property.
_OPS = st.one_of(
    st.tuples(st.just("flush"), st.sampled_from(["b", "c"]),
              st.sets(st.integers(0, 2), min_size=1), st.integers(1, 30)),
    st.tuples(st.just("fold"), st.sampled_from(["b", "c"])),
    st.tuples(st.just("compact")),
    st.tuples(st.just("truncate"), st.integers(0, 60),
              st.sets(st.integers(0, 2))),
)


def _bodies(store, keys):
    core = EndpointCore(store, registry=MetricsRegistry())
    out = []
    for key in keys:
        params = {"building": key.building, "wall": key.wall,
                  "node": str(key.node_id), "metric": key.metric}
        for resolution in RESOLUTIONS:
            response = core.handle(
                "GET", "/series", dict(params, resolution=resolution)
            )
            out.append((key, resolution, response.status, response.body))
    return out


class TestInterleavings:
    @given(ops=st.lists(_OPS, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_reads_equal_the_fully_folded_store(self, ops):
        scratch = Path(tempfile.mkdtemp(prefix="store-interleave-"))
        try:
            store = TelemetryStore(scratch / "s")
            clock = {}
            model = {}
            for op in ops:
                if op[0] == "flush":
                    _, building, nodes, rows = op
                    with store.writer() as writer:
                        for node in sorted(nodes):
                            key = SeriesKey(building, "w", node, "m")
                            t0 = clock.get(key, 0.0)
                            t = t0 + np.arange(rows, dtype=float) * 0.5
                            clock[key] = float(t[-1])
                            writer.add(key, t, np.sin(t) + node)
                            model.setdefault(key, []).extend(t.tolist())
                elif op[0] == "fold":
                    with store.partition(op[1]):
                        store.fold_partition(op[1])
                elif op[0] == "compact":
                    store.compact()
                else:
                    _, t, nodes = op
                    keys = [k for k in model if k.node_id in nodes]
                    store.truncate_from(float(t), keys=keys)
                    for key in keys:
                        model[key] = [x for x in model[key] if x < t]
            folded_root = scratch / "folded"
            shutil.copytree(scratch / "s", folded_root)
            folded = TelemetryStore(folded_root, create=False)
            for building in ("b", "c"):
                with folded.partition(building):
                    folded.fold_partition(building)
            keys = store.keys()
            assert keys == folded.keys()
            assert keys == sorted(k for k in model if model[k] or k in keys)
            for key in keys:
                assert store.read(key)["t"].tolist() == model[key]
                mine, theirs = store.read(key), folded.read(key)
                for column in mine:
                    assert np.array_equal(mine[column], theirs[column])
            # A fold coalesces frames, so only the rows must agree.
            assert [s["raw"]["rows"] for s in store.stats()["series"]] == [
                s["raw"]["rows"] for s in folded.stats()["series"]
            ]
            assert _bodies(store, keys) == _bodies(folded, keys)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class TestQuarantinedLog:
    def test_writes_resume_after_the_folded_records(self, tmp_path):
        store = TelemetryStore(tmp_path)
        _flush(store, 0)
        store.compact()  # the manifests now hold record 1
        _flush(store, 1)
        with _log(tmp_path).open("ab") as handle:
            handle.write(b"garbage")
        with pytest.raises(SegmentError, match="quarantined"):
            store.read(KEY)
        # Record 2 went to quarantine with the log; the folded rows stay.
        assert store.read(KEY)["t"].size == BLOCK_ROWS
        _flush(store, 2)
        view = commitlog.parse(_log(tmp_path).read_bytes())
        assert view.base_seq == 1 and [r.seq for r in view.records] == [2]
        store.compact()
        assert store.read(KEY)["t"].tolist() == (
            _block(0)[0].tolist() + _block(2)[0].tolist()
        )


#: What a store written before the commit log holds, and is refused for.
OLD_JOURNAL = "journal.jsonl"
OLD_JOURNAL_SCHEMA = "repro/store-journal/v1"
OLD_SEGMENT_SCHEMA = "repro/store-segment/v1"


def _old_segment_dir(root):
    return Path(root) / "segments" / KEY.relpath


def _old_manifest(schema, raw_entry):
    empty = {"bytes": 0, "rows": 0, "blocks": []}
    files = {
        res: {"columns": list(ROLLUP_COLUMNS), **empty}
        for res in ("hourly", "daily")
    }
    files[RAW] = {"columns": list(RAW_COLUMNS), **empty, **raw_entry}
    manifest = {"schema": schema, "key": KEY.to_dict(), "files": files}
    if schema == SEGMENT_SCHEMA:
        manifest["snapshot"] = 1
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_journaled_store(root, blocks=RECORDS):
    """A store as written before the commit log: a snapshot-1 manifest
    indexing nothing, the blocks in ``raw.seg``, one journal line each.
    Returns the name of the file a refusal must name."""
    TelemetryStore(root)
    directory = _old_segment_dir(root)
    directory.mkdir(parents=True)
    (directory / MANIFEST_FILENAME).write_text(_old_manifest(SEGMENT_SCHEMA, {}))
    offset = 0
    with open(directory / "raw.seg", "wb") as seg, open(
        directory / OLD_JOURNAL, "w"
    ) as journal:
        for b in range(blocks):
            frame, meta = encode_block(RAW_COLUMNS, list(_block(b)))
            seg.write(frame)
            journal.write(crclog.encode_line(
                OLD_JOURNAL_SCHEMA,
                {"res": RAW, "snapshot": 1, "offset": offset, **meta},
            ) + "\n")
            offset += meta["length"]
    return OLD_JOURNAL


def write_v1_store(root):
    """A store whose one segment has a version-1 manifest (no snapshot)."""
    TelemetryStore(root)
    directory = _old_segment_dir(root)
    directory.mkdir(parents=True)
    frame, meta = encode_block(RAW_COLUMNS, list(_block(0)))
    (directory / "raw.seg").write_bytes(frame)
    (directory / MANIFEST_FILENAME).write_text(_old_manifest(
        OLD_SEGMENT_SCHEMA,
        {"bytes": meta["length"], "rows": meta["n"],
         "blocks": [{"offset": 0, **meta}]},
    ))
    return MANIFEST_FILENAME


def _plant_record(root):
    """A commit-log record for the old segment: frames for a fold to copy."""
    frame, meta = encode_block(RAW_COLUMNS, list(_block(RECORDS)))
    _log(root).write_bytes(
        commitlog.encode_header(0)
        + commitlog.encode_record(1, [("w/n00001/strain", frame, meta)])
    )


def _fold(store):
    with store.partition("b"):
        store.fold_partition("b")


def _tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


class TestOldLayoutRefused:
    LAYOUTS = {"journal": write_journaled_store, "v1": write_v1_store}
    ACCESSES = {
        "read": lambda store: store.read(KEY),
        "stats": lambda store: store.stats(),
        "fold": _fold,
        "compact": lambda store: store.compact(),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("access", sorted(ACCESSES))
    def test_first_access_raises_and_changes_nothing(self, tmp_path, layout, access):
        root = tmp_path / "tele"
        name = self.LAYOUTS[layout](root)
        if access == "fold":
            _plant_record(root)
        before = _tree(root)
        store = TelemetryStore(root, create=False)
        with pytest.raises(StoreError, match=re.escape(name)) as excinfo:
            self.ACCESSES[access](store)
        assert type(excinfo.value) is StoreError  # refused, not corrupt
        assert "predates the commit log" in str(excinfo.value)
        assert _tree(root) == before
        assert not store.quarantine_dir.exists()

    @pytest.mark.parametrize("verb", ["stats", "compact"])
    def test_cli_exits_with_one_line(self, tmp_path, capsys, verb):
        root = tmp_path / "tele"
        write_journaled_store(root)
        before = _tree(root)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", verb, "--store", str(root)])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"store {verb}: ") and OLD_JOURNAL in message
        assert _tree(root) == before
