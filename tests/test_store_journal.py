"""Acknowledgement: the commit log, and the journal older stores left.

A store written before the commit log existed acknowledged each block
with one CRC-framed line in its segment's ``journal.jsonl``.  Such a
store must still read identically: the property tests here mirror
``test_store_recovery.py`` on an *uncompacted* store of that format,
whose blocks are acknowledged only by journal lines -- truncate or
byte-flip the journal anywhere and a read ends intact, loud, or -- for
a truncation -- on a prefix that stops at a block boundary.  The first
fold of the building writes the lines into the manifest and removes the
journal; a crash between that manifest rename and the removal must
neither quarantine nor re-apply the lines.  The append-path tests pin
what a flush costs now: one commit-log record, one fsync.
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
from repro.store import commitlog
from repro.store.commitlog import LOG_FILENAME
from repro.store.segment import (
    JOURNAL_FILENAME,
    JOURNAL_SCHEMA,
    RAW,
    RAW_COLUMNS,
    RESOLUTIONS,
    SEGMENT_SCHEMA,
    SEGMENT_SCHEMA_V1,
    SegmentDir,
    columns_for,
    encode_block,
)

KEY = SeriesKey("b", "w", 1, "strain")

#: Three appended blocks of 8 rows each, never compacted.
BLOCK_ROWS = 8
BLOCKS = 3


def _block(b):
    t = np.arange(b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS, dtype=float)
    return t, t * 10.0 + b


def _segment_dir(root):
    return root / "segments" / "b" / "w" / "n00001" / "strain"


def write_journaled_store(root, blocks=BLOCKS):
    """A store as written before the commit log: a snapshot-1 manifest
    indexing nothing, the blocks in ``raw.seg``, one journal line each."""
    TelemetryStore(root)
    directory = _segment_dir(root)
    directory.mkdir(parents=True)
    empty = {"bytes": 0, "rows": 0, "blocks": []}
    manifest = {
        "schema": SEGMENT_SCHEMA, "snapshot": 1, "key": KEY.to_dict(),
        "files": {
            res: {"columns": list(columns_for(res)), **empty}
            for res in RESOLUTIONS
        },
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    offset = 0
    with open(directory / "raw.seg", "wb") as seg, open(
        directory / JOURNAL_FILENAME, "w"
    ) as journal:
        for b in range(blocks):
            frame, meta = encode_block(RAW_COLUMNS, list(_block(b)))
            seg.write(frame)
            journal.write(crclog.encode_line(
                JOURNAL_SCHEMA,
                {"res": RAW, "snapshot": 1, "offset": offset, **meta},
            ) + "\n")
            offset += meta["length"]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("journal") / "tele"
    write_journaled_store(root)
    data = TelemetryStore(root, create=False).read(KEY)
    return {"root": root, "t": data["t"].copy(), "value": data["value"].copy()}


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
            real = Path.unlink

            def crash_on_removal(path, *args, **kwargs):
                if path.name == JOURNAL_FILENAME:
                    raise _Crash("power lost after the manifest rename")
                real(path, *args, **kwargs)

            monkeypatch.setattr(Path, "unlink", crash_on_removal)
            with pytest.raises(_Crash):
                TelemetryStore(root, create=False).compact()
            monkeypatch.setattr(Path, "unlink", real)
            # The folded lines are still in the journal, one snapshot old.
            assert _journal(root).read_bytes().count(b"\n") == BLOCKS

            store = TelemetryStore(root, create=False)
            data = store.read(KEY)
            assert np.array_equal(data["t"], pristine["t"])
            assert np.array_equal(data["value"], pristine["value"])
            assert not store.quarantine_dir.exists()

            # The next append and fold drop the stale lines instead of
            # stacking on them, and nothing is applied twice.
            store.append(KEY, [100.0], [-1.0])
            store.compact()
            data = TelemetryStore(root, create=False).read(KEY)
            assert np.array_equal(data["t"], np.append(pristine["t"], 100.0))
            assert not _journal(root).exists()
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
            assert not _journal(root).exists()
            data = TelemetryStore(root, create=False).read(KEY)
            assert np.array_equal(data["t"], pristine["t"])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class TestAppendPath:
    def test_append_does_not_rewrite_the_manifest(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        store.compact()
        manifest = _segment_dir(store.root) / "manifest.json"
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

    @pytest.mark.parametrize("durable, fsyncs", [(True, 1), (False, 0)])
    def test_steady_state_fsyncs(self, tmp_path, monkeypatch, durable, fsyncs):
        store = TelemetryStore(tmp_path / "s")
        other = SeriesKey("b", "w", 2, "rh")
        with store.writer(durable=durable) as writer:
            writer.add(KEY, *_block(0))
            writer.add(other, *_block(0))
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        fresh = TelemetryStore(tmp_path / "s", create=False)
        with fresh.writer(durable=durable) as writer:
            writer.add(KEY, *_block(1))
            writer.add(other, *_block(1))
        # One commit record for both series: no segment, manifest or
        # directory fsync.
        assert len(calls) == fsyncs

    def test_reader_leaves_a_torn_tail_for_the_writer(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        store.append(KEY, *_block(0))
        log = store.segments_dir / "b" / LOG_FILENAME
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

    def test_compaction_folds_the_journal(self, pristine):
        scratch, root = _copy(pristine)
        try:
            store = TelemetryStore(root, create=False)
            store.compact()
            assert not _journal(root).exists()
            manifest = json.loads(
                (_segment_dir(root) / "manifest.json").read_text()
            )
            assert len(manifest["files"]["raw"]["blocks"]) == 3
            data = TelemetryStore(root, create=False).read(KEY)
            assert np.array_equal(data["t"], pristine["t"])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


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
        segment = SegmentDir(
            _segment_dir(store.root), KEY.to_dict(), store.quarantine_dir
        )
        segment.append_block(RAW, list(_block(1)))
        manifest = json.loads(
            (_segment_dir(store.root) / "manifest.json").read_text()
        )
        assert manifest["schema"] == SEGMENT_SCHEMA
        assert len(manifest["files"]["raw"]["blocks"]) == 2
        # Through a store, the next block is a commit-log record; the
        # fold appends it after the v1 segment's blocks.
        store.append(KEY, *_block(2))
        for reader in (store, TelemetryStore(store.root, create=False)):
            assert np.array_equal(
                reader.read(KEY)["t"],
                np.concatenate([_block(b)[0] for b in range(3)]),
            )
        store.compact()
        data = TelemetryStore(store.root, create=False).read(KEY)
        assert np.array_equal(
            data["t"], np.concatenate([_block(b)[0] for b in range(3)])
        )
