"""Index reuse: a long-lived store parses a segment's index once per change.

A :class:`TelemetryStore` keeps one :class:`SegmentDir` per series and
reuses its parsed block index only while the journal and manifest bytes
on disk are the ones it was parsed from.  These tests pin that rule:
an unchanged segment is parsed once, and every kind of change -- an
append by another process, a compaction by another store object, an
in-place rewrite that keeps the journal's size and mtime, a flipped
manifest byte, and appends racing readers on other threads -- is seen
by the next read exactly as a fresh store would see it.  The uncached
``keys()`` directory walk must list exactly what a manifest glob does.
"""

import json
import logging
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.errors import SegmentError, StoreError
from repro.obs import MetricsRegistry
from repro.runtime import crclog
from repro.serve import EndpointCore
from repro.store import OBS_BUILDING, SeriesKey, TelemetryStore
from repro.store import segment as segment_module
from repro.store.segment import (
    HOURLY,
    JOURNAL_FILENAME,
    JOURNAL_SCHEMA,
    MANIFEST_FILENAME,
    SegmentDir,
)

KEY = SeriesKey("b", "w", 1, "strain")
BLOCK_ROWS = 8


def _block(b):
    t = np.arange(b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS, dtype=float)
    return t, t * 10.0 + b


def _segment_dir(root, key=KEY):
    return root / "segments" / key.relpath


def _seeded(root, blocks=3, compact=False):
    store = TelemetryStore(root)
    for b in range(blocks):
        store.append(KEY, *_block(b))
    if compact:
        store.compact()
    return store


def _count_parses(monkeypatch):
    calls = []
    real = SegmentDir._manifest_problems

    def counting(payload):
        calls.append(1)
        return real(payload)

    monkeypatch.setattr(SegmentDir, "_manifest_problems", staticmethod(counting))
    return calls


class TestParseOnce:
    def test_unchanged_segment_is_parsed_once(self, tmp_path, monkeypatch):
        _seeded(tmp_path / "s", compact=True)
        store = TelemetryStore(tmp_path / "s", create=False)
        calls = _count_parses(monkeypatch)
        for _ in range(20):
            assert store.read(KEY)["t"].size == 3 * BLOCK_ROWS
        assert len(calls) == 1

    def test_every_read_still_rereads_the_journal_and_manifest(
        self, tmp_path, monkeypatch
    ):
        _seeded(tmp_path / "s")
        store = TelemetryStore(tmp_path / "s", create=False)
        opened = []
        for name in ("io_read_bytes", "io_read_text"):
            real = getattr(segment_module, name)
            monkeypatch.setattr(
                segment_module, name,
                lambda path, real=real: (
                    opened.append(os.path.basename(path)), real(path)
                )[1],
            )
        for _ in range(3):
            store.read(KEY)
        assert opened == [JOURNAL_FILENAME, MANIFEST_FILENAME] * 3


class TestChangesAreSeen:
    def test_append_by_another_process(self, tmp_path):
        store = _seeded(tmp_path / "s")
        assert store.read(KEY)["t"].size == 3 * BLOCK_ROWS
        script = (
            "import numpy as np\n"
            "from repro.store import SeriesKey, TelemetryStore\n"
            "t = np.arange(24.0, 32.0)\n"
            f"TelemetryStore({str(tmp_path / 's')!r}).append("
            "SeriesKey('b', 'w', 1, 'strain'), t, t * 10.0 + 3)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            repro.__file__
        )))
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=60)
        data = store.read(KEY)
        assert data["t"].size == 4 * BLOCK_ROWS
        assert np.array_equal(data["value"][-BLOCK_ROWS:], _block(3)[1])

    def test_compaction_by_another_store_object(self, tmp_path):
        store = _seeded(tmp_path / "s", compact=True)
        before = store.read(KEY, HOURLY)
        other = TelemetryStore(tmp_path / "s", create=False)
        t = np.arange(24.0, 48.0)
        other.append(KEY, t, t * 3.0)
        other.compact()
        after = store.read(KEY, HOURLY)
        expected = TelemetryStore(tmp_path / "s", create=False).read(KEY, HOURLY)
        assert after["t"].size == before["t"].size + 24
        for column in expected:
            assert np.array_equal(after[column], expected[column])

    def test_same_length_rewrite_with_restored_mtime(self, tmp_path):
        """A size-or-mtime key would keep serving the old index here."""
        store = _seeded(tmp_path / "s")
        journal = _segment_dir(tmp_path / "s") / JOURNAL_FILENAME
        window = {"t0": float(3 * BLOCK_ROWS - 1)}  # the last row only
        assert store.read(KEY, **window)["t"].size == 1
        raw = journal.read_bytes()
        head, last = raw[:-1].rsplit(b"\n", 1)
        record = crclog.decode_line(JOURNAL_SCHEMA, last.decode("utf-8"))
        for t1 in np.arange(record["t1"] - 1.0, record["t0"], -1.0):
            line = crclog.encode_line(JOURNAL_SCHEMA, dict(record, t1=float(t1)))
            if len(line.encode("utf-8")) == len(last):
                break
        else:
            pytest.skip("no same-length journal line for this block")
        stat = journal.stat()
        with open(journal, "r+b") as handle:
            handle.write(head + b"\n" + line.encode("utf-8") + b"\n")
        os.utime(journal, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert journal.stat().st_size == stat.st_size
        assert journal.stat().st_mtime_ns == stat.st_mtime_ns
        # The rewritten line ends the block before the window starts.
        fresh = TelemetryStore(tmp_path / "s", create=False).read(KEY, **window)
        assert fresh["t"].size == 0
        assert store.read(KEY, **window)["t"].size == 0

    @pytest.mark.parametrize("site", [b"{", b"store-segment"])
    def test_flipped_manifest_byte_is_loud_and_quarantined(self, tmp_path, site):
        store = _seeded(tmp_path / "s", compact=True)
        store.read(KEY)
        manifest = _segment_dir(tmp_path / "s") / MANIFEST_FILENAME
        raw = bytearray(manifest.read_bytes())
        raw[raw.index(site)] ^= 0x01
        manifest.write_bytes(bytes(raw))
        shutil.copytree(tmp_path / "s", tmp_path / "copy")
        for reader in (store, TelemetryStore(tmp_path / "copy", create=False)):
            with pytest.raises(SegmentError, match="quarantined"):
                reader.read(KEY)
            assert list(reader.quarantine_dir.iterdir())
            assert reader.keys() == []


class TestKeysWalk:
    def test_matches_the_manifest_glob(self, tmp_path, caplog):
        """The directory walk lists what ``*/*/*/*/manifest.json`` did."""
        store = TelemetryStore(tmp_path / "s")
        for key in (
            SeriesKey("b", "w", 2, "strain"), SeriesKey("a", "w", 1, "rh"),
            SeriesKey(OBS_BUILDING, "serve", 0, "serve.requests"),
        ):
            store.append(key, [0.0], [1.0])
        base = store.segments_dir
        for odd in ("b/w/node7/strain", "b/.hidden/n00001/m", "b/w/n00003/x/y"):
            (base / odd).mkdir(parents=True)
            (base / odd / MANIFEST_FILENAME).write_text("{}")
        (base / "b" / "w" / "n00004" / "no-manifest").mkdir(parents=True)
        (base / "b" / "w" / "n00002" / "stray.txt").write_text("")

        expected, warned = [], []
        for manifest in sorted(base.glob("*/*/*/*/manifest.json")):
            try:
                expected.append(SeriesKey.from_path_parts(
                    manifest.parent.relative_to(base).parts
                ))
            except StoreError:
                warned.append(f"path={manifest.parent}")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            assert store.keys() == sorted(expected)
        assert len(expected) == 3 and len(warned) == 2
        assert [
            record.getMessage() for record in caplog.records
        ] == [f"store.unrecognised_segment {path}" for path in warned]


class TestConcurrentAppend:
    KEY = SeriesKey(OBS_BUILDING, "serve", 0, "serve.requests")
    ROWS = 3

    def _rows(self, body):
        columns = json.loads(body)["columns"]
        return list(zip(columns["t"], columns["value"]))

    def test_readers_racing_an_appender_see_block_aligned_prefixes(
        self, tmp_path
    ):
        store = TelemetryStore(tmp_path / "s")
        next_t = [0.0]

        def append_block():
            t = next_t[0] + np.arange(self.ROWS, dtype=float)
            next_t[0] += self.ROWS
            with store.writer(durable=False) as writer:
                writer.add(self.KEY, t, t * 2.0)

        for _ in range(4):
            append_block()
        core = EndpointCore(store, registry=MetricsRegistry())
        params = {
            "building": OBS_BUILDING, "wall": "serve", "node": "0",
            "metric": "serve.requests",
        }
        writer_done = threading.Event()
        results = []  # (after_writer_stopped, status, body)
        errors = []

        def reader():
            try:
                stopped_seen = 0
                while stopped_seen < 5:
                    after = writer_done.is_set()
                    response = core.handle("GET", "/series", params)
                    results.append((after, response.status, response.body))
                    stopped_seen += after
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        def writer():
            try:
                for _ in range(60):
                    append_block()
            except BaseException as exc:
                errors.append(exc)
            finally:
                writer_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        fresh = EndpointCore(
            TelemetryStore(tmp_path / "s", create=False),
            registry=MetricsRegistry(),
        ).handle("GET", "/series", params)
        final = self._rows(fresh.body)
        assert len(final) == 64 * self.ROWS
        assert {status for _after, status, _body in results} == {200}
        for after, _status, body in results:
            rows = self._rows(body)
            assert len(rows) % self.ROWS == 0
            assert rows == final[: len(rows)]
            if after:
                assert body == fresh.body
