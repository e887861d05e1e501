"""Compaction, the query engine's answers, and rollups computed on read.

Every resolution equals the rollup of raw at every moment: a bucket is
returned when its start lies in ``[t0, t1]`` and carries the statistics
of its whole width, before and after compaction alike, and a cached
gateway answer never outlives the rows it summarised.
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

from repro.cli import main
from repro.errors import StoreError
from repro.faults import io as io_module
from repro.obs import MetricsRegistry
from repro.serve import EndpointCore, RollupCache, encode_json
from repro.shm.damage import DamageAlarm
from repro.store import (
    DAILY,
    HOURLY,
    RAW,
    ROLLUP_WIDTHS,
    QueryEngine,
    SeriesKey,
    TelemetryStore,
    rollup,
)
from repro.store.compact import ROLLUP_COLUMNS
from repro.store.segment import MANIFEST_FILENAME, OLD_ROLLUPS, encode_block

rng = np.random.default_rng(42)


def _reference_rollup(t, v, width):
    """Straight-line python reference for the vectorized rollup."""
    buckets = {}
    for ti, vi in zip(t, v):
        buckets.setdefault(np.floor(ti / width) * width, []).append(vi)
    out = []
    for bucket in sorted(buckets):
        values = buckets[bucket]
        out.append(
            (bucket, min(values), sum(values) / len(values), max(values),
             float(len(values)))
        )
    return out


class TestRollup:
    def test_matches_reference(self):
        t = np.sort(rng.uniform(0.0, 100.0, size=500))
        v = rng.normal(0.0, 10.0, size=500)
        got = rollup(t, v, 1.0)
        want = _reference_rollup(t, v, 1.0)
        assert got[0].size == len(want)
        for i, (bucket, lo, mean, hi, count) in enumerate(want):
            assert got[0][i] == pytest.approx(bucket)
            assert got[1][i] == pytest.approx(lo)
            assert got[2][i] == pytest.approx(mean)
            assert got[3][i] == pytest.approx(hi)
            assert got[4][i] == count

    def test_empty_input(self):
        out = rollup(np.empty(0), np.empty(0), 1.0)
        assert all(col.size == 0 for col in out)

    def test_bad_width(self):
        with pytest.raises(StoreError):
            rollup(np.array([1.0]), np.array([1.0]), 0.0)

    def test_buckets_epoch_aligned(self):
        # Appending later samples must not shift earlier buckets.
        t1, v1 = np.array([5.5, 5.7]), np.array([1.0, 3.0])
        full_t = np.array([5.5, 5.7, 6.1])
        full_v = np.array([1.0, 3.0, 9.0])
        first = rollup(t1, v1, 1.0)
        both = rollup(full_t, full_v, 1.0)
        assert both[0][0] == first[0][0] == 5.0
        assert both[2][0] == first[2][0] == 2.0


@pytest.fixture()
def populated(tmp_path):
    store = TelemetryStore(tmp_path)
    keys = [
        SeriesKey("b", "north", 1, "strain"),
        SeriesKey("b", "north", 2, "strain"),
        SeriesKey("b", "south", 3, "strain"),
    ]
    t = np.arange(0.0, 96.0, 0.5)
    for i, key in enumerate(keys):
        store.append(key, t, 100.0 + 10.0 * i + np.sin(t + i))
    return store, keys, t


def _files(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


class TestCompaction:
    def test_compact_is_deterministic(self, populated):
        """A second compaction leaves every file as the first left it."""
        store, keys, _ = populated
        store.compact()
        first = _files(store.segments_dir)
        store.compact()
        assert _files(store.segments_dir) == first
        for key in keys:
            assert len(store.segment(key).file_entry()["blocks"]) == 1

    def test_compact_summary(self, populated):
        store, keys, t = populated
        rows = t.size * len(keys)
        assert store.compact() == {
            "series": len(keys), "folded_rows": rows, "raw_rows": rows,
        }
        assert store.compact() == {
            "series": len(keys), "folded_rows": 0, "raw_rows": rows,
        }


class TestQueryEngine:
    def test_select_filters(self, populated):
        store, keys, _ = populated
        engine = QueryEngine(store)
        assert engine.select() == keys
        assert engine.select(wall="north") == keys[:2]
        assert engine.select(node_id=3) == [keys[2]]
        assert engine.select(metric="nope") == []

    def test_series_raw_window(self, populated):
        store, keys, _ = populated
        engine = QueryEngine(store)
        data = engine.series(keys[0], t0=10.0, t1=20.0)
        assert data["t"][0] >= 10.0 and data["t"][-1] <= 20.0

    def test_rollup_on_the_fly_matches_compacted(self, populated):
        store, keys, _ = populated
        engine = QueryEngine(store)
        lazy = engine.series(keys[0], resolution=HOURLY)
        store.compact()
        compacted = engine.series(keys[0], resolution=HOURLY)
        for column in ("t", "min", "mean", "max", "count"):
            assert np.allclose(lazy[column], compacted[column])

    def test_unknown_resolution(self, populated):
        store, keys, _ = populated
        with pytest.raises(StoreError):
            QueryEngine(store).series(keys[0], resolution="weekly")

    @pytest.mark.parametrize("agg", ["count", "min", "max", "sum", "mean"])
    def test_rollup_aggregate_matches_raw(self, populated, agg):
        store, _, _ = populated
        store.compact()
        engine = QueryEngine(store)
        raw = engine.aggregate("strain", agg, resolution=RAW)["value"]
        hourly = engine.aggregate("strain", agg, resolution=HOURLY)["value"]
        daily = engine.aggregate("strain", agg, resolution=DAILY)["value"]
        assert hourly == pytest.approx(raw, rel=1e-12)
        assert daily == pytest.approx(raw, rel=1e-12)

    def test_group_by_wall(self, populated):
        store, _, t = populated
        engine = QueryEngine(store)
        result = engine.aggregate("strain", "count", group_by="wall")
        assert result["groups"] == {
            "b/north": 2.0 * t.size, "b/south": 1.0 * t.size,
        }

    def test_group_by_node(self, populated):
        store, keys, t = populated
        engine = QueryEngine(store)
        result = engine.aggregate("strain", "count", group_by="node")
        assert result["groups"]["b/north/1"] == t.size

    def test_no_matching_series(self, populated):
        store, _, _ = populated
        engine = QueryEngine(store)
        result = engine.aggregate("ghost", "mean")
        assert result["value"] is None and result["series"] == 0

    def test_bad_agg_and_group_by(self, populated):
        store, _, _ = populated
        engine = QueryEngine(store)
        with pytest.raises(StoreError):
            engine.aggregate("strain", "median")
        with pytest.raises(StoreError):
            engine.aggregate("strain", "mean", group_by="building")

    def test_latest(self, populated):
        store, keys, t = populated
        engine = QueryEngine(store)
        last = engine.latest(keys[0])
        assert last["t"] == t[-1]
        assert engine.latest(SeriesKey("b", "w", 9, "x")) is None


class TestDamageQueries:
    def _drifting_store(self, tmp_path, drift_per_day=3.0, days=60):
        store = TelemetryStore(tmp_path)
        hours = np.arange(0.0, days * 24.0, 2.0)
        healthy = 120.0 + 5.0 * np.sin(hours / 7.0)
        drifting = healthy + drift_per_day * hours / 24.0
        store.append(SeriesKey("hq", "east", 1, "strain"), hours, healthy)
        store.append(SeriesKey("hq", "east", 2, "strain"), hours, drifting)
        store.compact()
        return store

    def test_drifting_capsule_alarms(self, tmp_path):
        engine = QueryEngine(self._drifting_store(tmp_path))
        alarm = engine.strain_alarm(SeriesKey("hq", "east", 2, "strain"))
        assert isinstance(alarm, DamageAlarm)
        assert alarm.severity == "critical"
        assert alarm.drift_estimate == pytest.approx(3.0, rel=0.1)

    def test_healthy_capsule_silent(self, tmp_path):
        engine = QueryEngine(self._drifting_store(tmp_path))
        assert (
            engine.strain_alarm(SeriesKey("hq", "east", 1, "strain")) is None
        )

    def test_degradation_report(self, tmp_path):
        engine = QueryEngine(self._drifting_store(tmp_path))
        report = engine.degradation_report("hq")
        assert report["grade"] == "critical"
        assert report["degraded_walls"] == ["east"]
        flagged = {s["node_id"] for s in report["attention"]}
        assert flagged == {2}

    def test_stale_capsule_unreachable(self, tmp_path):
        store = self._drifting_store(tmp_path)
        # Node 3 stopped reporting long before the others.
        store.append(
            SeriesKey("hq", "east", 3, "strain"), [0.0, 24.0], [100.0, 101.0]
        )
        monitor = QueryEngine(store).building_view("hq", stale_hours=100.0)
        by_node = {
            c.node_id: c for w in monitor.walls() for c in w.capsules
        }
        assert not by_node[3].reachable
        assert by_node[1].reachable

    def test_missing_building_is_loud(self, tmp_path):
        engine = QueryEngine(self._drifting_store(tmp_path))
        with pytest.raises(StoreError):
            engine.building_view("atlantis")


def _flush(store, key, t, v):
    with store.writer() as writer:
        writer.add(key, t, v)


class TestRollupOnRead:
    KEY = SeriesKey("b", "w", 1, "strain")

    def test_daily_mean_sees_rows_flushed_after_compaction(self, tmp_path):
        store = TelemetryStore(tmp_path)
        _flush(store, self.KEY, np.arange(48.0), np.full(48, 1.0))
        store.compact()
        _flush(store, self.KEY, np.arange(48.0, 96.0), np.full(48, 3.0))
        engine = QueryEngine(store)
        for resolution in (RAW, HOURLY, DAILY):
            assert engine.aggregate(
                "strain", "mean", resolution=resolution
            )["value"] == 2.0
        daily = engine.series(self.KEY, resolution=DAILY)
        assert daily["t"].tolist() == [0.0, 24.0, 48.0, 72.0]
        assert daily["mean"].tolist() == [1.0, 1.0, 3.0, 3.0]

    def test_one_window_rule_before_and_after_compaction(self, tmp_path):
        store = TelemetryStore(tmp_path)
        t = np.arange(72.0)
        _flush(store, self.KEY, t, t)
        engine = QueryEngine(store)
        for _compacted in (False, True):
            daily = engine.series(self.KEY, t0=12.0, t1=60.0, resolution=DAILY)
            assert daily["t"].tolist() == [24.0, 48.0]
            assert daily["count"].tolist() == [24.0, 24.0]
            assert daily["mean"].tolist() == [35.5, 59.5]
            store.compact()

    def test_infinite_bounds_stay_open(self, populated):
        store, keys, t = populated
        engine = QueryEngine(store)
        for resolution in (HOURLY, DAILY):
            whole = engine.series(keys[0], resolution=resolution)
            open_ = engine.series(
                keys[0], t0=-np.inf, t1=np.inf, resolution=resolution
            )
            for column in ROLLUP_COLUMNS:
                assert np.array_equal(whole[column], open_[column])

    def test_new_store_writes_no_rollup_files(self, populated):
        store, keys, _ = populated
        engine = QueryEngine(store)
        for step in (store.compact, lambda: store.truncate_from(50.0),
                     store.compact):
            step()
            for key in keys:
                engine.series(key, resolution=HOURLY)
                engine.series(key, t0=3.5, t1=40.25, resolution=DAILY)
        assert not [p for p in store.root.rglob("*.seg") if p.name != "raw.seg"]
        for manifest in store.root.rglob(MANIFEST_FILENAME):
            assert list(json.loads(manifest.read_text())["files"]) == ["raw"]

    def test_legacy_compacted_layout_loads_and_compact_cleans_it(
        self, populated, capsys
    ):
        """A segment compacted when rollups were still stored: its
        hourly/daily files (stale here on purpose) are never read, and
        ``store compact`` deletes them and their manifest entries."""
        store, keys, t = populated
        store.compact()
        want = {
            (key, res): QueryEngine(store).series(key, resolution=res)
            for key in keys for res in (HOURLY, DAILY)
        }
        for key in keys:
            segment = store.segment(key)
            manifest = json.loads(segment.manifest_path.read_text())
            for name in OLD_ROLLUPS:
                frame, meta = encode_block(
                    ROLLUP_COLUMNS, [np.array([0.0])] + [np.array([-1.0])] * 4
                )
                (segment.directory / f"{name}.seg").write_bytes(frame)
                manifest["files"][name] = {
                    "columns": list(ROLLUP_COLUMNS), "bytes": meta["length"],
                    "rows": 1, "blocks": [{"offset": 0, **meta}],
                }
            segment.manifest_path.write_text(json.dumps(manifest))
        legacy = TelemetryStore(store.root, create=False)
        engine = QueryEngine(legacy)
        for (key, res), expected in want.items():
            got = engine.series(key, resolution=res)
            for column in ROLLUP_COLUMNS:
                assert np.array_equal(got[column], expected[column])
        assert main(["store", "compact", "--store", str(store.root)]) == 0
        assert capsys.readouterr().out == (
            f"compacted {len(keys)} series: {t.size * len(keys)} raw row(s), "
            "0 folded from commit logs\n"
        )
        assert not legacy.quarantine_dir.exists()
        assert sorted(p.name for p in store.root.rglob("*.seg")) == [
            "raw.seg"
        ] * len(keys)
        for manifest in store.root.rglob(MANIFEST_FILENAME):
            assert list(json.loads(manifest.read_text())["files"]) == ["raw"]

    def test_second_compaction_writes_nothing(self, populated):
        store, _, _ = populated
        store.compact()
        generation = store.generation

        class Recorder(io_module.IoFaultInjector):
            def __init__(self):
                super().__init__(io_module.IoFaultPlan(seed=0))
                self.calls = []

            def write(self, handle, data):
                self.calls.append("write")
                handle.write(data)

            def fsync(self, fileno, path=None):
                self.calls.append("fsync")
                os.fsync(fileno)

            def replace(self, src, dst):
                self.calls.append("replace")
                os.replace(src, dst)

        recorder = Recorder()
        io_module._active = recorder
        try:
            TelemetryStore(store.root, create=False).compact()
        finally:
            io_module._active = None
        assert recorder.calls == []
        assert store.generation == generation


class TestCacheStamp:
    KEY = SeriesKey("b", "w", 1, "strain")
    PARAMS = {"building": "b", "wall": "w", "node": "1", "metric": "strain",
              "resolution": DAILY}

    def _cores(self, root):
        cached = EndpointCore(
            TelemetryStore(root), registry=MetricsRegistry(), cache=RollupCache(),
        )
        return cached, lambda: EndpointCore(
            TelemetryStore(root, create=False), registry=MetricsRegistry(),
        ).handle("GET", "/series", self.PARAMS).body

    def test_a_flush_invalidates_without_a_bump(self, tmp_path):
        store = TelemetryStore(tmp_path)
        cached, reference = self._cores(tmp_path)
        _flush(store, self.KEY, np.arange(24.0), np.full(24, 1.0))
        first = cached.handle("GET", "/series", self.PARAMS).body
        generation = store.generation
        _flush(store, self.KEY, np.arange(24.0, 48.0), np.full(24, 3.0))
        assert store.generation == generation
        second = cached.handle("GET", "/series", self.PARAMS).body
        assert second == reference() != first
        assert cached.cache.invalidations == 1

    def test_a_fold_never_revives_an_older_answer(self, tmp_path):
        """Each fold empties the log to the same size; the bumps around
        its reset retire the answer cached after the previous fold."""
        store = TelemetryStore(tmp_path)
        cached, reference = self._cores(tmp_path)
        _flush(store, self.KEY, np.arange(24.0), np.full(24, 1.0))
        store.compact()
        first = cached.handle("GET", "/series", self.PARAMS).body
        _flush(store, self.KEY, np.arange(24.0, 48.0), np.full(24, 3.0))
        store.compact()
        assert cached.handle("GET", "/series", self.PARAMS).body == (
            reference()
        ) != first


#: One step of the cache property: a flush into a building, a
#: compaction, a truncation, or a fold of one building -- and which of
#: the (at most 18) requests the cached core is asked after it, so an
#: entry can sit unasked across steps, as an unviewed panel's does.
_STEPS = st.tuples(
    st.one_of(
        st.tuples(st.just("flush"), st.sampled_from(["x", "y"]),
                  st.integers(1, 40), st.sampled_from([0.25, 0.5, 1.0, 5.0])),
        st.tuples(st.just("compact")),
        st.tuples(st.just("truncate"), st.integers(0, 160)),
        st.tuples(st.just("fold"), st.sampled_from(["x", "y"])),
    ),
    st.frozensets(st.integers(0, 17)),
)

#: The windows each step queries: whole, and unaligned at both widths.
_WINDOWS = ({}, {"t0": "10.5", "t1": "130.25"})


def _requests(store):
    """``(path, params, body from rollup() of raw or None)`` to check."""
    out = []
    for key in store.keys():
        for resolution in (HOURLY, DAILY):
            for window in _WINDOWS:
                params = dict(
                    building=key.building, wall=key.wall,
                    node=str(key.node_id), metric=key.metric,
                    resolution=resolution, **window,
                )
                out.append(("/series", params,
                            _rollup_of_raw(store, key, resolution, window)))
    for window in _WINDOWS:
        params = dict(metric="strain", agg="mean", resolution=DAILY,
                      group_by="node", **window)
        out.append(("/aggregate", params, None))
    return out


def _rollup_of_raw(store, key, resolution, window):
    """The /series body built straight from ``rollup()`` of all raw."""
    raw = store.read(key)
    columns = rollup(raw["t"], raw["value"], ROLLUP_WIDTHS[resolution])
    keep = np.ones(columns[0].shape, dtype=bool)
    if window:
        keep &= (columns[0] >= float(window["t0"])) & (
            columns[0] <= float(window["t1"])
        )
    return encode_json({
        "key": key.to_dict(),
        "resolution": resolution,
        "rows": int(keep.sum()),
        "columns": {
            name: column[keep].tolist()
            for name, column in zip(ROLLUP_COLUMNS, columns)
        },
    })


class TestCachedRollupsFollowRaw:
    @given(steps=st.lists(_STEPS, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_cached_uncached_and_rollup_of_raw_agree(self, steps):
        scratch = Path(tempfile.mkdtemp(prefix="rollup-cache-"))
        try:
            root = scratch / "s"
            writer = TelemetryStore(root)
            cached = EndpointCore(
                TelemetryStore(root), registry=MetricsRegistry(),
                cache=RollupCache(),
            )
            clock = {}
            for step, asked in steps:
                if step[0] == "flush":
                    _, building, rows, spacing = step
                    for node in (1, 2):
                        key = SeriesKey(building, "w", node, "strain")
                        t = clock.get(key, 0.0) + spacing * np.arange(rows)
                        clock[key] = float(t[-1]) + spacing
                        _flush(writer, key, t, np.sin(t) * 10.0 + node)
                elif step[0] == "compact":
                    writer.compact()
                elif step[0] == "truncate":
                    writer.truncate_from(float(step[1]))
                else:
                    with writer.partition(step[1]):
                        writer.fold_partition(step[1])
                fresh = TelemetryStore(root, create=False)
                uncached = EndpointCore(fresh, registry=MetricsRegistry())
                for index, (path, params, expected) in enumerate(_requests(fresh)):
                    body = uncached.handle("GET", path, params).body
                    if expected is not None:
                        assert body == expected
                    if index in asked:
                        assert cached.handle("GET", path, params).body == body
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
