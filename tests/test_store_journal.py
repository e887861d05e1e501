"""The segment journal: appends acknowledged by one CRC-framed line.

Property tests mirror ``test_store_recovery.py`` on an *uncompacted*
store, whose blocks are acknowledged only by journal lines: truncate or
byte-flip the journal anywhere and a read ends intact, loud, or -- for
a truncation -- on a prefix that stops at a block boundary (a cut at a
line boundary is indistinguishable from an append whose journal fsync
never finished).  A crash between a folding manifest rename and the
journal reset must neither quarantine nor re-apply the folded lines.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SegmentError, StoreError
from repro.faults.io import IoFaultInjector, IoFaultPlan
from repro.runtime import crclog
from repro.store import SeriesKey, TelemetryStore
from repro.store.segment import (
    JOURNAL_FILENAME,
    RAW,
    RAW_COLUMNS,
    SEGMENT_SCHEMA,
    SEGMENT_SCHEMA_V1,
    SegmentDir,
    encode_block,
)

KEY = SeriesKey("b", "w", 1, "strain")

#: Three appended blocks of 8 rows each, never compacted.
BLOCK_ROWS = 8
BLOCKS = 3


def _block(b):
    t = np.arange(b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS, dtype=float)
    return t, t * 10.0 + b


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("journal") / "tele"
    store = TelemetryStore(root)
    for b in range(BLOCKS):
        store.append(KEY, *_block(b))
    data = store.read(KEY)
    return {"root": root, "t": data["t"].copy(), "value": data["value"].copy()}


def _segment_dir(root):
    return root / "segments" / "b" / "w" / "n00001" / "strain"


def _journal(root):
    return _segment_dir(root) / JOURNAL_FILENAME


def _copy(pristine):
    scratch = Path(tempfile.mkdtemp(prefix="store-journal-"))
    root = scratch / "tele"
    shutil.copytree(pristine["root"], root)
    return scratch, root


def _outcome(pristine, damage):
    """``"intact"``, ``"prefix"`` or ``"loud"`` -- never wrong values."""
    scratch, root = _copy(pristine)
    try:
        damage(root)
        try:
            data = TelemetryStore(root, create=False).read(KEY)
        except (SegmentError, StoreError):
            return "loud"
        n = data["t"].size
        assert n % BLOCK_ROWS == 0, "a read stopped inside a block"
        assert np.array_equal(data["t"], pristine["t"][:n]) and np.array_equal(
            data["value"], pristine["value"][:n]
        ), "damaged journal returned DIFFERENT values without raising"
        return "intact" if n == pristine["t"].size else "prefix"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class TestJournalDamage:
    def test_pristine_store_is_journaled(self, pristine):
        lines = _journal(pristine["root"]).read_bytes().splitlines()
        assert len(lines) == BLOCKS
        manifest = json.loads(
            (_segment_dir(pristine["root"]) / "manifest.json").read_text()
        )
        assert manifest["schema"] == SEGMENT_SCHEMA
        assert manifest["files"]["raw"]["blocks"] == []

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_anywhere(self, pristine, data):
        raw = _journal(pristine["root"]).read_bytes()
        offset = data.draw(st.integers(0, len(raw)), label="truncate_at")

        def damage(root):
            _journal(root).write_bytes(raw[:offset])

        outcome = _outcome(pristine, damage)
        # Every complete line still acknowledges its block; the cut line
        # is a torn tail.
        complete = raw[:offset].count(b"\n")
        expected = "intact" if complete == BLOCKS else "prefix"
        assert outcome == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_anywhere(self, pristine, data):
        raw = _journal(pristine["root"]).read_bytes()
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        value = data.draw(st.integers(0, 255), label="value")

        def damage(root):
            flipped = bytearray(raw)
            flipped[position] = value
            _journal(root).write_bytes(bytes(flipped))

        expected = ("intact",) if raw[position] == value else ("loud",)
        assert _outcome(pristine, damage) in expected

    def test_flipped_final_newline_is_loud_not_torn(self, pristine):
        def damage(root):
            raw = _journal(root).read_bytes()
            _journal(root).write_bytes(raw[:-1] + b" ")

        assert _outcome(pristine, damage) == "loud"

    def test_line_ahead_of_its_manifest_is_loud(self, pristine):
        # What a dropped manifest rename leaves: lines tagged with a
        # snapshot the manifest on disk never reached.
        def damage(root):
            path = _segment_dir(root) / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["snapshot"] = 0
            path.write_text(json.dumps(manifest))

        assert _outcome(pristine, damage) == "loud"

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_append_after_truncation_heals(self, pristine, data):
        raw = _journal(pristine["root"]).read_bytes()
        offset = data.draw(st.integers(0, len(raw)), label="truncate_at")
        scratch, root = _copy(pristine)
        try:
            _journal(root).write_bytes(raw[:offset])
            kept = raw[:offset].count(b"\n") * BLOCK_ROWS
            store = TelemetryStore(root, create=False)
            t_next = float(pristine["t"][-1] + 1.0)
            store.append(KEY, [t_next], [-1.0])
            after = store.read(KEY)
            assert np.array_equal(
                after["t"], np.append(pristine["t"][:kept], t_next)
            )
            assert np.array_equal(
                after["value"], np.append(pristine["value"][:kept], -1.0)
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class _Crash(Exception):
    pass


class TestFoldCrash:
    def test_crash_between_manifest_rename_and_journal_reset(
        self, pristine, monkeypatch
    ):
        scratch, root = _copy(pristine)
        try:
            real = crclog.truncate_file

            def crash_on_reset(path, size, durable=True):
                if Path(path).name == JOURNAL_FILENAME and size == 0:
                    raise _Crash("power lost after the manifest rename")
                real(path, size, durable)

            monkeypatch.setattr(crclog, "truncate_file", crash_on_reset)
            with pytest.raises(_Crash):
                TelemetryStore(root, create=False).compact()
            monkeypatch.setattr(crclog, "truncate_file", real)
            # The folded lines are still in the journal, one snapshot old.
            assert _journal(root).read_bytes().count(b"\n") == BLOCKS

            store = TelemetryStore(root, create=False)
            data = store.read(KEY)
            assert np.array_equal(data["t"], pristine["t"])
            assert np.array_equal(data["value"], pristine["value"])
            assert not store.quarantine_dir.exists()

            # The next append drops the stale lines instead of stacking
            # on them, and nothing is applied twice.
            store.append(KEY, [100.0], [-1.0])
            data = TelemetryStore(root, create=False).read(KEY)
            assert np.array_equal(data["t"], np.append(pristine["t"], 100.0))
            assert _journal(root).read_bytes().count(b"\n") == 1
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
                if Path(dst).name == "manifest.json" and not self.dropped:
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
            assert _journal(root).stat().st_size == 0
            data = TelemetryStore(root, create=False).read(KEY)
            assert np.array_equal(data["t"], pristine["t"])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class TestAppendPath:
    def test_append_does_not_rewrite_the_manifest(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        manifest = _segment_dir(store.root) / "manifest.json"
        before = (manifest.read_bytes(), manifest.stat().st_ino)
        for b in range(1, 5):
            store.append(KEY, *_block(b))
        assert (manifest.read_bytes(), manifest.stat().st_ino) == before
        assert store.read(KEY)["t"].size == 5 * BLOCK_ROWS

    def test_append_reads_only_the_last_journal_line(self, tmp_path, monkeypatch):
        store = TelemetryStore(tmp_path / "s")
        for b in range(4):
            store.append(KEY, *_block(b))

        def no_scan(*_args, **_kwargs):
            raise AssertionError("an append scanned the whole journal")

        monkeypatch.setattr(crclog, "scan_lines", no_scan)
        store.append(KEY, *_block(4))
        monkeypatch.undo()
        assert store.read(KEY)["t"].size == 5 * BLOCK_ROWS

    @pytest.mark.parametrize("durable, fsyncs", [(True, 2), (False, 0)])
    def test_steady_state_fsyncs(self, tmp_path, monkeypatch, durable, fsyncs):
        segment = SegmentDir(tmp_path / "seg", KEY.to_dict(), tmp_path / "q")
        segment.append_block(RAW, list(_block(0)), durable=durable)
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        fresh = SegmentDir(tmp_path / "seg", KEY.to_dict(), tmp_path / "q")
        fresh.append_block(RAW, list(_block(1)), durable=durable)
        # Data, then its journal line: no manifest, no directory fsync.
        assert len(calls) == fsyncs

    def test_reader_leaves_a_torn_tail_for_the_writer(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        journal = _journal(store.root)
        torn = journal.read_bytes() + b'{"crc":12,"rec'
        journal.write_bytes(torn)
        assert TelemetryStore(store.root).read(KEY)["t"].size == BLOCK_ROWS
        assert journal.read_bytes() == torn  # readers never mutate
        store.append(KEY, *_block(1))
        assert store.read(KEY)["t"].size == 2 * BLOCK_ROWS
        assert journal.read_bytes().endswith(b"\n")

    def test_compaction_folds_the_journal(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        for b in range(3):
            store.append(KEY, *_block(b))
        store.compact()
        assert _journal(store.root).stat().st_size == 0
        manifest = json.loads(
            (_segment_dir(store.root) / "manifest.json").read_text()
        )
        assert len(manifest["files"]["raw"]["blocks"]) == 3
        assert store.read(KEY)["t"].size == 3 * BLOCK_ROWS


class TestVersionOneSegments:
    def _v1_segment(self, directory):
        directory.mkdir(parents=True)
        frame, meta = encode_block(RAW_COLUMNS, list(_block(0)))
        (directory / "raw.seg").write_bytes(frame)
        empty = {"bytes": 0, "rows": 0, "blocks": []}
        manifest = {
            "schema": SEGMENT_SCHEMA_V1,
            "key": KEY.to_dict(),
            "files": {
                "raw": {
                    "columns": list(RAW_COLUMNS), "bytes": meta["length"],
                    "rows": meta["n"], "blocks": [{"offset": 0, **meta}],
                },
                "hourly": {"columns": ["t", "min", "mean", "max", "count"], **empty},
                "daily": {"columns": ["t", "min", "mean", "max", "count"], **empty},
            },
        }
        (directory / "manifest.json").write_text(json.dumps(manifest))

    def test_v1_loads_and_first_append_upgrades_it(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        self._v1_segment(_segment_dir(store.root))
        assert store.read(KEY)["t"].size == BLOCK_ROWS
        store.append(KEY, *_block(1))
        manifest = json.loads(
            (_segment_dir(store.root) / "manifest.json").read_text()
        )
        assert manifest["schema"] == SEGMENT_SCHEMA
        assert len(manifest["files"]["raw"]["blocks"]) == 1
        assert _journal(store.root).read_bytes().count(b"\n") == 1
        data = store.read(KEY)
        assert np.array_equal(
            data["t"], np.concatenate([_block(0)[0], _block(1)[0]])
        )
