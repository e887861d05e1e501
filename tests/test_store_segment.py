"""Unit tests for the store's keys and columnar segment layer."""

import json

import numpy as np
import pytest

from repro.errors import SegmentError, StoreError
from repro.obs import observed
from repro.store import MAX_NODE_ID, SegmentDir, SeriesKey
from repro.store.compact import ROLLUP_COLUMNS
from repro.store.segment import (
    MANIFEST_FILENAME,
    OLD_ROLLUPS,
    RAW_COLUMNS,
    decode_block,
    encode_block,
)

KEY = SeriesKey("bldg", "north", 3, "strain")


def _segment(tmp_path, key=KEY):
    return SegmentDir(
        tmp_path / "seg" / key.metric, key.to_dict(), tmp_path / "quarantine"
    )


class TestSeriesKey:
    def test_round_trip_dict(self):
        assert SeriesKey.from_dict(KEY.to_dict()) == KEY

    def test_round_trip_path_parts(self):
        parts = KEY.relpath.parts
        assert SeriesKey.from_path_parts(parts) == KEY

    def test_node_dirname_zero_padded(self):
        assert KEY.node_dirname == "n00003"

    @pytest.mark.parametrize(
        "component", ["", "../evil", "a/b", "a b", ".hidden", "x" * 65]
    )
    def test_rejects_unsafe_components(self, component):
        with pytest.raises(StoreError):
            SeriesKey(component, "w", 1, "m")

    @pytest.mark.parametrize("node_id", [-1, MAX_NODE_ID + 1, 1.5, True])
    def test_rejects_bad_node_ids(self, node_id):
        with pytest.raises(StoreError):
            SeriesKey("b", "w", node_id, "m")

    def test_keys_sort_by_components(self):
        a = SeriesKey("b", "w", 1, "strain")
        b = SeriesKey("b", "w", 2, "strain")
        assert sorted([b, a]) == [a, b]


class TestBlockFraming:
    def test_round_trip(self):
        t = np.array([1.0, 2.0, 3.0])
        v = np.array([10.0, 20.0, 30.0])
        frame, meta = encode_block(RAW_COLUMNS, [t, v])
        assert meta["n"] == 3 and (meta["t0"], meta["t1"]) == (1.0, 3.0)
        out = decode_block(frame, RAW_COLUMNS)
        assert np.array_equal(out["t"], t)
        assert np.array_equal(out["value"], v)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(StoreError):
            encode_block(RAW_COLUMNS, [np.empty(0), np.empty(0)])
        with pytest.raises(StoreError):
            encode_block(
                RAW_COLUMNS, [np.array([1.0]), np.array([np.nan])]
            )

    def test_rejects_decreasing_time(self):
        with pytest.raises(StoreError):
            encode_block(
                RAW_COLUMNS, [np.array([2.0, 1.0]), np.array([0.0, 0.0])]
            )

    def test_crc_flip_detected(self):
        frame, _ = encode_block(
            RAW_COLUMNS, [np.array([1.0, 2.0]), np.array([5.0, 6.0])]
        )
        for position in range(len(frame)):
            damaged = bytearray(frame)
            damaged[position] ^= 0xFF
            with pytest.raises(SegmentError):
                decode_block(bytes(damaged), RAW_COLUMNS)

    def test_wrong_column_layout_rejected(self):
        frame, _ = encode_block(
            RAW_COLUMNS, [np.array([1.0]), np.array([5.0])]
        )
        with pytest.raises(SegmentError):
            decode_block(frame, ROLLUP_COLUMNS)


class TestSegmentAppendRead:
    def test_append_then_read(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0, 1.0]), np.array([1.0, 2.0])])
        seg.append_block([np.array([2.0, 3.0]), np.array([3.0, 4.0])])
        data = seg.read()
        assert np.array_equal(data["t"], [0.0, 1.0, 2.0, 3.0])
        assert seg.rows() == 4
        assert seg.time_range() == (0.0, 3.0)

    def test_range_read_prunes_blocks_and_filters(self, tmp_path):
        seg = _segment(tmp_path)
        for start in range(0, 40, 10):
            t = np.arange(start, start + 10, dtype=float)
            seg.append_block([t, t * 2.0])
        data = seg.read(t0=12.0, t1=27.0)
        assert data["t"][0] == 12.0 and data["t"][-1] == 27.0
        assert np.array_equal(data["value"], data["t"] * 2.0)

    def test_out_of_order_append_rejected(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([5.0]), np.array([1.0])])
        with pytest.raises(StoreError):
            seg.append_block([np.array([4.0]), np.array([1.0])])

    def test_ties_at_the_boundary_allowed(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([5.0]), np.array([1.0])])
        seg.append_block([np.array([5.0]), np.array([2.0])])
        assert seg.rows() == 2

    def test_empty_read(self, tmp_path):
        seg = _segment(tmp_path)
        data = seg.read()
        assert data["t"].size == 0 and data["value"].size == 0

    def test_replace_and_clear(self, tmp_path):
        seg = _segment(tmp_path)
        for start in (0.0, 2.0):
            seg.append_block([np.array([start, start + 1.0])] * 2)
        seg.replace([np.array([7.0, 8.0, 9.0]), np.array([1.0, 2.0, 3.0])])
        assert seg.rows() == 3
        assert len(seg.file_entry()["blocks"]) == 1
        assert np.array_equal(_segment(tmp_path).read()["t"], [7.0, 8.0, 9.0])
        seg.replace([np.empty(0), np.empty(0)])
        assert seg.rows() == 0
        assert seg.seg_path.stat().st_size == 0
        assert _segment(tmp_path).read()["t"].size == 0


class TestSegmentDurability:
    def test_torn_tail_truncated_on_next_append(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0]), np.array([1.0])])
        # Simulate a crash between data-append and manifest-rename.
        with seg.seg_path.open("ab") as handle:
            handle.write(b"torn half-written block")
        fresh = _segment(tmp_path)
        assert fresh.rows() == 1
        assert np.array_equal(fresh.read()["value"], [1.0])
        with observed() as scope:
            fresh.append_block([np.array([1.0]), np.array([2.0])])
            assert scope.registry.counter("store.truncations").value == 1.0
        assert fresh.rows() == 2
        assert np.array_equal(fresh.read()["value"], [1.0, 2.0])

    def test_short_file_quarantined(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0]), np.array([1.0])])
        raw = seg.seg_path
        raw.write_bytes(raw.read_bytes()[:-5])
        fresh = _segment(tmp_path)
        with pytest.raises(SegmentError):
            fresh.append_block([np.array([1.0]), np.array([2.0])])
        assert not raw.exists()
        assert any((tmp_path / "quarantine").iterdir())

    def test_payload_flip_detected_on_read(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0, 1.0]), np.array([1.0, 2.0])])
        raw = seg.seg_path
        data = bytearray(raw.read_bytes())
        data[-6] ^= 0x01  # inside the payload/CRC region
        raw.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            _segment(tmp_path).read()

    def test_garbage_manifest_quarantined(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0]), np.array([1.0])])
        seg.manifest_path.write_text("{not json")
        with pytest.raises(SegmentError):
            _segment(tmp_path).read()
        assert any((tmp_path / "quarantine").iterdir())

    def test_data_without_manifest_quarantined(self, tmp_path):
        seg = _segment(tmp_path)
        seg.append_block([np.array([0.0]), np.array([1.0])])
        seg.manifest_path.unlink()
        fresh = _segment(tmp_path)
        assert fresh.rows() == 0  # fresh manifest, data set aside
        assert any((tmp_path / "quarantine").iterdir())


class TestTruncateFrom:
    def _filled(self, tmp_path):
        seg = _segment(tmp_path)
        for start in (0.0, 10.0, 20.0):
            t = np.arange(start, start + 10.0)
            seg.append_block([t, t + 100.0])
        return seg

    def test_cut_mid_block(self, tmp_path):
        seg = self._filled(tmp_path)
        assert seg.truncate_from(15.0) == 15
        data = seg.read()
        assert data["t"][-1] == 14.0
        assert np.array_equal(data["value"], data["t"] + 100.0)

    def test_cut_nothing_when_past_the_end(self, tmp_path):
        seg = self._filled(tmp_path)
        assert seg.truncate_from(30.0) == 0
        assert seg.rows() == 30

    def test_cut_everything(self, tmp_path):
        seg = self._filled(tmp_path)
        assert seg.truncate_from(0.0) == 30
        assert seg.rows() == 0

    def test_cut_clears_rollups(self, tmp_path):
        """A cut rewrites the manifest with raw only, dropping the rollup
        entries an earlier compaction left."""
        seg = self._filled(tmp_path)
        manifest = json.loads(seg.manifest_path.read_text())
        for name in OLD_ROLLUPS:
            manifest["files"][name] = {
                "columns": list(ROLLUP_COLUMNS), "bytes": 0, "rows": 0,
                "blocks": [],
            }
        seg.manifest_path.write_text(json.dumps(manifest))
        seg = _segment(tmp_path)
        assert seg.truncate_from(15.0) == 15
        manifest = json.loads((seg.directory / MANIFEST_FILENAME).read_text())
        assert list(manifest["files"]) == ["raw"]

    def test_append_after_cut(self, tmp_path):
        seg = self._filled(tmp_path)
        seg.truncate_from(15.0)
        seg.append_block([np.array([15.0]), np.array([115.0])])
        assert seg.rows() == 16
