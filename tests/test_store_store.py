"""Unit tests for TelemetryStore, StoreWriter and the ingest adapters."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.link import PlacedNode, PowerUpLink, WallSession
from repro.materials import get_concrete
from repro.node import EcoCapsule, Environment
from repro.protocol import SensorReport
from repro.store import (
    STORE_SCHEMA,
    SeriesKey,
    TelemetryStore,
    ingest_campaign_result,
    ingest_reports,
    ingest_series,
    ingest_session,
)
from repro.acoustics import StructureGeometry

KEY = SeriesKey("b", "w", 1, "strain")


class TestStoreLifecycle:
    def test_creates_marker(self, tmp_path):
        TelemetryStore(tmp_path / "tele")
        assert (tmp_path / "tele" / "store.json").exists()

    def test_reopen(self, tmp_path):
        TelemetryStore(tmp_path / "tele")
        TelemetryStore(tmp_path / "tele", create=False)

    def test_missing_store_refused_without_create(self, tmp_path):
        with pytest.raises(StoreError):
            TelemetryStore(tmp_path / "nope", create=False)

    def test_foreign_directory_refused(self, tmp_path):
        (tmp_path / "store.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(StoreError):
            TelemetryStore(tmp_path)

    def test_schema_constant(self, tmp_path):
        store = TelemetryStore(tmp_path)
        assert store.stats()["schema"] == STORE_SCHEMA


class TestWriter:
    def test_append_and_read(self, tmp_path):
        store = TelemetryStore(tmp_path)
        store.append(KEY, [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        data = store.read(KEY)
        assert np.array_equal(data["value"], [5.0, 6.0, 7.0])

    def test_one_block_per_series_per_flush(self, tmp_path):
        store = TelemetryStore(tmp_path)
        other = SeriesKey("b", "w", 2, "strain")
        with store.writer() as writer:
            for t in range(5):
                writer.add_sample(KEY, float(t), float(t))
                writer.add_sample(other, float(t), float(t))
        for key in (KEY, other):
            assert len(store.segment(key).file_entry()["blocks"]) == 1

    def test_auto_flush_at_threshold(self, tmp_path):
        store = TelemetryStore(tmp_path)
        writer = store.writer(flush_rows=10)
        writer.add(KEY, np.arange(10.0), np.zeros(10))
        # Crossing the threshold flushed without an explicit flush().
        assert store.read(KEY)["t"].size == 10

    def test_unsorted_batch_sorted_stably(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            writer.add(KEY, [3.0, 1.0, 2.0, 1.0], [30.0, 10.0, 20.0, 11.0])
        data = store.read(KEY)
        assert np.array_equal(data["t"], [1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(data["value"], [10.0, 11.0, 20.0, 30.0])

    def test_mismatched_lengths_rejected(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with pytest.raises(StoreError):
            store.writer().add(KEY, [0.0, 1.0], [5.0])

    def test_exception_skips_flush(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.writer() as writer:
                writer.add_sample(KEY, 0.0, 1.0)
                raise RuntimeError("abort ingest")
        assert store.read(KEY)["t"].size == 0

    def test_appends_stay_ordered_and_recoverable(self, tmp_path):
        store = TelemetryStore(tmp_path)
        store.writer().__enter__()  # writer alone writes nothing
        with store.writer() as writer:
            writer.add(KEY, [0.0, 1.0], [1.0, 2.0])
        with store.writer() as writer:
            writer.add(KEY, [2.0], [3.0])
        # A torn tail on the commit log heals on the next append.
        path = store.commit_log(KEY.building).path
        with path.open("ab") as handle:
            handle.write(b"RREC\x20")
        with store.writer() as writer:
            writer.add(KEY, [3.0], [4.0])
        assert np.array_equal(store.read(KEY)["value"], [1.0, 2.0, 3.0, 4.0])

    def test_identical_sequences_identical_bytes(self, tmp_path):
        def build(root):
            store = TelemetryStore(root)
            with store.writer() as writer:
                writer.add(KEY, [0.0, 1.0], [1.0, 2.0])
                writer.add(SeriesKey("b", "w", 2, "rh"), [0.5], [60.0])
            store.compact()
            return store

        a, b = build(tmp_path / "a"), build(tmp_path / "b")
        for key in a.keys():
            pa = a.segment(key).seg_path
            pb = b.segment(key).seg_path
            assert pa.read_bytes() == pb.read_bytes()


class TestStoreTruncateAndStats:
    def test_truncate_from_spans_series(self, tmp_path):
        store = TelemetryStore(tmp_path)
        k2 = SeriesKey("b", "w", 2, "strain")
        store.append(KEY, np.arange(10.0), np.arange(10.0))
        store.append(k2, np.arange(5.0), np.arange(5.0))
        assert store.truncate_from(4.0) == 7
        assert store.read(KEY)["t"].size == 4
        assert store.read(k2)["t"].size == 4

    def test_keys_sorted(self, tmp_path):
        store = TelemetryStore(tmp_path)
        keys = [
            SeriesKey("b", "w", 2, "strain"),
            SeriesKey("a", "w", 1, "rh"),
            SeriesKey("b", "w", 1, "strain"),
        ]
        for key in keys:
            store.append(key, [0.0], [1.0])
        assert store.keys() == sorted(keys)

    def test_stats_totals(self, tmp_path):
        store = TelemetryStore(tmp_path)
        store.append(KEY, np.arange(6.0), np.arange(6.0))
        store.compact()
        stats = store.stats()
        assert stats["series_count"] == 1
        assert stats["totals"] == {
            "raw": {"rows": 6, "bytes": store.segment(KEY).seg_path.stat().st_size,
                    "blocks": 1},
        }
        assert list(stats["series"][0]) == ["key", "raw", "t0", "t1"]
        assert stats["quarantined"] == []


def _survey_result(seed=7, nodes=3):
    concrete = get_concrete("UHPC")
    wall = StructureGeometry(
        "test wall", length=6.0, thickness=0.2, medium=concrete.medium
    )
    placed = [
        PlacedNode(
            capsule=EcoCapsule(
                node_id=i + 1,
                environment=Environment(
                    temperature=20.0, humidity=60.0, strain=50.0 * i
                ),
                seed=seed + i,
            ),
            distance=0.4 + 0.2 * i,
        )
        for i in range(nodes)
    ]
    session = WallSession(
        budget=PowerUpLink(wall), nodes=placed, tx_voltage=250.0, seed=seed
    )
    return session.run()


class TestIngestAdapters:
    def test_ingest_session(self, tmp_path):
        result = _survey_result()
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            rows = ingest_session(writer, result, "b", "w", t=12.0)
        assert rows == sum(len(r) for r in result.reports.values())
        for node_id, reports in result.reports.items():
            for report in reports:
                key = SeriesKey("b", "w", node_id, report.channel)
                data = store.read(key)
                assert data["t"][0] == 12.0
                assert report.value in data["value"]

    def test_ingest_reports_mapping(self, tmp_path):
        reports = {4: [SensorReport.from_value(4, "strain", 120.0)]}
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            assert ingest_reports(writer, reports, "b", "w", t=3.0) == 1
        key = SeriesKey("b", "w", 4, "strain")
        assert store.read(key)["value"][0] == pytest.approx(120.0)

    def test_ingest_series_vectorized(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            rows = ingest_series(
                writer, "b", "w", "acceleration",
                np.arange(100.0), np.ones(100),
            )
        assert rows == 100
        key = SeriesKey("b", "w", 0, "acceleration")
        assert store.read(key)["t"].size == 100

    def test_ingest_campaign_result_payload(self, tmp_path):
        payload = {
            "schema": "repro/campaign-result/v1",
            "result": {
                "hours": [0.0, 1.0, 2.0],
                "acceleration": [0.1, 0.2, 0.3],
                "stress_mpa": [-60.0, -61.0, -62.0],
            },
        }
        store = TelemetryStore(tmp_path)
        with store.writer() as writer:
            assert ingest_campaign_result(writer, payload) == 6
        accel = store.read(SeriesKey("campaign", "pilot", 0, "acceleration"))
        assert np.array_equal(accel["value"], [0.1, 0.2, 0.3])

    def test_ingest_campaign_result_rejects_garbage(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with pytest.raises(StoreError):
            with store.writer() as writer:
                ingest_campaign_result(writer, {"result": {}})
        with pytest.raises(StoreError):
            with store.writer() as writer:
                ingest_campaign_result(
                    writer, tmp_path / "missing-result.json"
                )

    def test_ingest_campaign_result_length_mismatch(self, tmp_path):
        store = TelemetryStore(tmp_path)
        with pytest.raises(StoreError):
            with store.writer() as writer:
                ingest_campaign_result(
                    writer,
                    {"result": {"hours": [0.0, 1.0], "acceleration": [0.1]}},
                )
