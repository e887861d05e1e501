"""Layer-by-layer hardening tests against injected storage faults.

Each write path gets its contract pinned: the epoch log and segment
appends heal their torn tails before retrying (no garbage-merged lines
or frames), atomic JSON writes restart from a fresh temp file, the
verified result write catches a silently dropped rename, a full disk
degrades the store export while the campaign's result bytes stay
identical to a clean run's, and a failing heartbeat never kills an
otherwise healthy worker.
"""

import dataclasses
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignConfig
from repro.campaign.driver import (
    Campaign,
    RESULT_FILENAME,
    campaign_status,
    result_hash,
)
from repro.campaign.log import EpochLog
from repro.errors import SegmentError
from repro.faults.io import (
    IoFaultInjector,
    IoFaultPlan,
    TMP_SUFFIX,
    clear_io_faults,
    io_faults,
)
from repro.fleet.worker import HEARTBEAT_FILENAME, write_heartbeat
from repro.runtime.serialize import (
    read_json,
    write_json_atomic,
    write_json_atomic_verified,
)
from repro.store import TelemetryStore
from repro.store.keys import SeriesKey

TINY = CampaignConfig(epochs=2, nodes=2, hours_per_epoch=6, seed=11)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    clear_io_faults()
    yield
    clear_io_faults()


class TestAtomicJsonUnderFaults:
    def test_torn_writes_retried_from_fresh_temp(self, tmp_path):
        path = tmp_path / "out.json"
        with io_faults(IoFaultPlan(seed=2, torn_write_rate=0.25)) as injector:
            for i in range(10):
                write_json_atomic(path, {"i": i, "blob": "x" * 200})
        assert injector.counts.get("torn_writes", 0) > 0
        assert read_json(path) == {"i": 9, "blob": "x" * 200}
        assert not list(tmp_path.glob("*" + TMP_SUFFIX))  # no leaked temps

    def test_verified_write_catches_dropped_rename(self, tmp_path):
        path = tmp_path / "result.json"
        # A dropped first rename: plain write_json_atomic would
        # "succeed" with no file on disk; the verified variant reads
        # back, notices, and rewrites.
        with io_faults(IoFaultPlan(seed=1, drop_rename_rate=0.4)) as injector:
            write_json_atomic_verified(path, {"final": True})
        assert injector.counts.get("renames_dropped", 0) > 0
        assert read_json(path) == {"final": True}

    def test_verified_write_retries_a_read_back_that_is_not_utf8(
        self, tmp_path, monkeypatch
    ):
        class RotFirstRead(IoFaultInjector):
            def __init__(self):
                super().__init__(IoFaultPlan(seed=0, bitrot_read_rate=1.0))

            def read_bytes(self, path):
                data = Path(path).read_bytes()
                if not self.counts:
                    self.record("bitrot_reads")
                    return data[:-2] + b"\xa0" + data[-1:]
                return data

        injector = RotFirstRead()
        monkeypatch.setattr("repro.faults.io._active", injector)
        write_json_atomic_verified(tmp_path / "result.json", {"final": True})
        monkeypatch.setattr("repro.faults.io._active", None)
        assert injector.counts == {"bitrot_reads": 1}
        assert read_json(tmp_path / "result.json") == {"final": True}

    def test_exhausted_retries_stay_loud(self, tmp_path):
        with io_faults(IoFaultPlan(seed=3, eio_fsync_rate=1.0)):
            with pytest.raises(OSError) as err:
                write_json_atomic(tmp_path / "x.json", {})
        assert err.value.errno == errno.EIO


class TestEpochLogUnderFaults:
    def test_torn_appends_healed_never_merged(self, tmp_path):
        log = EpochLog(tmp_path / "epochs.jsonl")
        records = [{"epoch": i, "coverage": i / 10} for i in range(30)]
        with io_faults(IoFaultPlan(seed=4, torn_write_rate=0.2)) as injector:
            for record in records:
                log.append(record)
        assert injector.counts.get("torn_writes", 0) > 0
        recovered = log.recover()
        assert [r["epoch"] for r in recovered] == list(range(30))
        assert recovered == records


class TestSegmentUnderFaults:
    KEY = SeriesKey(building="b", wall="w", node_id=0, metric="strain")

    def test_torn_block_appends_healed(self, tmp_path):
        store = TelemetryStore(tmp_path / "store")
        with io_faults(IoFaultPlan(seed=5, torn_write_rate=0.3)) as injector:
            for batch in range(10):
                t = np.arange(8, dtype=np.float64) + batch * 8
                store.append(self.KEY, t, t * 0.5)
        assert injector.counts.get("torn_writes", 0) > 0
        data = store.read(self.KEY)
        expected = np.arange(80, dtype=np.float64)
        assert np.array_equal(data["t"], expected)
        assert np.array_equal(data["value"], expected * 0.5)

    def test_bitrot_surfaces_as_segment_error_not_retry(self, tmp_path):
        store = TelemetryStore(tmp_path / "store")
        t = np.arange(64, dtype=np.float64)
        store.append(self.KEY, t, t)
        # A flipped bit trips the block CRC: that is corruption, not a
        # transient error, so it must NOT be retried -- it surfaces as a
        # loud SegmentError and the segment is quarantined.
        with io_faults(IoFaultPlan(seed=6, bitrot_read_rate=1.0)) as injector:
            with pytest.raises(SegmentError):
                store.read(self.KEY)
        assert injector.counts.get("bitrot_reads", 0) >= 1
        assert list(store.quarantine_dir.iterdir())


class _StoreOnlyEnospc(IoFaultInjector):
    """ENOSPC on every write under one directory; clean elsewhere.

    Models the deployment shape the degrade path exists for: the store
    lives on a separate (full) volume while the campaign state disk is
    healthy.
    """

    def __init__(self, store_dir):
        super().__init__(IoFaultPlan(seed=0, enospc_write_rate=1.0))
        self._store_dir = str(store_dir)

    def write(self, handle, data):
        path = str(getattr(handle, "name", "") or "")
        if self._store_dir in path:
            self.record("enospc")
            raise OSError(errno.ENOSPC, "injected ENOSPC", path)
        handle.write(data)


class TestCampaignExportDegrade:
    def test_enospc_degrades_export_not_result(self, tmp_path, monkeypatch):
        clean = Campaign(TINY, state_dir=tmp_path / "clean").run()
        store_dir = tmp_path / "drill-store"
        campaign = Campaign(
            TINY, state_dir=tmp_path / "drill", store_dir=store_dir
        )
        # Installed after construction: the store marker was written on
        # a healthy disk, then the volume "fills up".
        monkeypatch.setattr(
            "repro.faults.io._active", _StoreOnlyEnospc(store_dir)
        )
        outcome = campaign.run()
        assert campaign.export_failures == list(range(TINY.epochs))
        # The campaign kept computing and its result bytes are exactly
        # the clean run's -- the export is additive, never load-bearing.
        assert result_hash(outcome.result) == result_hash(clean.result)

        monkeypatch.setattr("repro.faults.io._active", None)
        status = campaign_status(tmp_path / "drill")
        assert status["export_degraded_epochs"] == campaign.export_failures
        # The degradation flag lives in the audit log only, never in the
        # hashed result payload.
        payload = read_json(tmp_path / "drill" / RESULT_FILENAME)
        assert "export_degraded" not in json.dumps(payload)

    def test_degraded_export_heals_offline_from_result(self, tmp_path, monkeypatch):
        from repro.store.ingest import ingest_campaign_result

        store_dir = tmp_path / "store"
        campaign = Campaign(
            TINY, state_dir=tmp_path / "state", store_dir=store_dir
        )
        monkeypatch.setattr(
            "repro.faults.io._active", _StoreOnlyEnospc(store_dir)
        )
        campaign.run()
        assert len(campaign.export_failures) == TINY.epochs
        monkeypatch.setattr("repro.faults.io._active", None)

        # The disk recovered: the recorded result re-ingests offline
        # (the ``store ingest`` verb), healing the lost series.
        store = TelemetryStore(store_dir, create=False)
        with store.writer() as writer:
            rows = ingest_campaign_result(
                writer, tmp_path / "state" / RESULT_FILENAME
            )
        assert rows > 0
        assert len(store.keys()) > 0


class TestHeartbeatUnderFaults:
    def test_heartbeat_failure_swallowed(self, tmp_path):
        with io_faults(IoFaultPlan(seed=9, enospc_write_rate=1.0)):
            write_heartbeat(tmp_path, "b001", 3)  # must not raise
        assert not (tmp_path / HEARTBEAT_FILENAME).exists()
        assert not list(tmp_path.glob("*" + TMP_SUFFIX))

    def test_dropped_rename_heartbeat_swallowed(self, tmp_path):
        with io_faults(IoFaultPlan(seed=9, drop_rename_rate=1.0)):
            write_heartbeat(tmp_path, "b001", 3)
        assert not (tmp_path / HEARTBEAT_FILENAME).exists()


class TestStaleTempReclaim:
    def test_campaign_init_sweeps_state_dir(self, tmp_path):
        state_dir = tmp_path / "state"
        (state_dir / "checkpoints").mkdir(parents=True)
        leak = state_dir / "checkpoints" / f"ck.json{TMP_SUFFIX}"
        leak.write_text("{")
        Campaign(TINY, state_dir=state_dir)
        assert not leak.exists()

    def test_store_writer_sweeps_locked_partition(self, tmp_path):
        store = TelemetryStore(tmp_path / "store")
        key = SeriesKey(building="b9", wall="w", node_id=0, metric="m")
        partition = store.segments_dir / "b9" / "w"
        partition.mkdir(parents=True)
        leak = partition / f"raw.seg{TMP_SUFFIX}"
        leak.write_text("junk")
        with store.writer() as writer:
            writer.add(key, np.array([0.0]), np.array([1.0]))
        assert not leak.exists()

    def test_store_creation_sweeps_root_marker_temp(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        leak = root / f"store.json{TMP_SUFFIX}"
        leak.write_text("{")
        TelemetryStore(root)
        assert not leak.exists()
