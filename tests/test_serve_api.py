"""Shared endpoint-core tests: validation, 405/HEAD, ETag, cursors,
and the rollup cache's exact counter accounting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreError
from repro.obs import MetricsRegistry
from repro.serve import (
    EndpointCore,
    RollupCache,
    decode_cursor,
    encode_cursor,
    encode_json,
)
from repro.store import SeriesKey, TelemetryStore

KEY = SeriesKey("hq", "east", 1, "strain")
SERIES_PARAMS = {
    "building": "hq", "wall": "east", "node": "1", "metric": "strain",
}


@pytest.fixture()
def store(tmp_path):
    store = TelemetryStore(tmp_path)
    hours = np.arange(0.0, 120.0, 0.5)
    store.append(KEY, hours, 120.0 + 2.0 * hours / 24.0)
    store.compact()
    return store


@pytest.fixture()
def core(store):
    return EndpointCore(store, registry=MetricsRegistry())


class TestValidation:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_non_finite_window_is_400(self, core, bad):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, t0=bad)
        )
        assert response.status == 400
        payload = json.loads(response.body)
        assert "finite" in payload["error"] and bad in payload["error"]

    def test_non_finite_stale_hours_is_400(self, core):
        response = core.handle(
            "GET", "/health", {"building": "hq", "stale_hours": "nan"}
        )
        assert response.status == 400
        assert "finite" in json.loads(response.body)["error"]

    def test_non_number_window_keeps_legacy_message(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, t0="yesterday")
        )
        assert response.status == 400
        assert "must be a number" in json.loads(response.body)["error"]

    def test_finite_windows_still_accepted(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, t0="0", t1="10")
        )
        assert response.status == 200


class TestMethods:
    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "PATCH"])
    def test_non_get_is_405_with_allow(self, core, method):
        response = core.handle(method, "/stats", {})
        assert response.status == 405
        assert ("Allow", "GET, HEAD") in response.headers
        payload = json.loads(response.body)
        assert method in payload["error"]
        assert "read-only" in payload["error"]

    def test_head_returns_get_body(self, core):
        # The core answers HEAD with the full body; the transport layer
        # is responsible for sending headers only.
        get = core.handle("GET", "/stats", {})
        head = core.handle("HEAD", "/stats", {})
        assert head.status == 200
        assert head.body == get.body

    def test_lowercase_method_normalised(self, core):
        assert core.handle("get", "/stats", {}).status == 200
        assert core.handle("post", "/stats", {}).status == 405


class TestConditional:
    def test_series_carries_strong_etag(self, core):
        response = core.handle("GET", "/series", dict(SERIES_PARAMS))
        etags = dict(response.headers)
        assert etags["ETag"].startswith('"') and etags["ETag"].endswith('"')

    def test_if_none_match_hits_304(self, core):
        first = core.handle("GET", "/series", dict(SERIES_PARAMS))
        etag = dict(first.headers)["ETag"]
        second = core.handle(
            "GET", "/series", dict(SERIES_PARAMS), if_none_match=etag
        )
        assert second.status == 304
        assert second.body == b""
        assert dict(second.headers)["ETag"] == etag

    def test_if_none_match_list_matches_any(self, core):
        first = core.handle("GET", "/aggregate", {"metric": "strain"})
        etag = dict(first.headers)["ETag"]
        second = core.handle(
            "GET", "/aggregate", {"metric": "strain"},
            if_none_match=f'"deadbeef", {etag}',
        )
        assert second.status == 304

    def test_stale_etag_gets_fresh_200(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS),
            if_none_match='"0000000000000000"',
        )
        assert response.status == 200 and response.body


class TestCursors:
    def test_roundtrip(self):
        for offset in (0, 1, 17, 10**9):
            assert decode_cursor(encode_cursor(offset)) == offset

    @pytest.mark.parametrize(
        "cursor", ["!!!!", "", "eyJ4IjogMX0=", encode_json({"o": -1}).decode()]
    )
    def test_malformed_cursor_raises(self, cursor):
        with pytest.raises(StoreError, match="cursor"):
            decode_cursor(cursor)

    def test_cursor_without_limit_is_400(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, cursor=encode_cursor(0))
        )
        assert response.status == 400
        assert "requires 'limit'" in json.loads(response.body)["error"]

    def test_zero_limit_is_400(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, limit="0")
        )
        assert response.status == 400

    def test_bad_cursor_over_http_contract_is_400(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, limit="10", cursor="%%%")
        )
        assert response.status == 400
        assert "cursor" in json.loads(response.body)["error"]

    def test_first_page_shape(self, core):
        response = core.handle(
            "GET", "/series", dict(SERIES_PARAMS, limit="10")
        )
        payload = json.loads(response.body)
        assert payload["rows"] == 10
        assert payload["total_rows"] == 240
        assert payload["page"]["offset"] == 0
        assert payload["page"]["next_cursor"] is not None
        assert len(payload["columns"]["t"]) == 10

    def test_unpaginated_payload_keeps_legacy_shape(self, core):
        payload = json.loads(
            core.handle("GET", "/series", dict(SERIES_PARAMS)).body
        )
        assert "page" not in payload and "total_rows" not in payload
        assert payload["rows"] == 240


class TestRollupCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StoreError):
            RollupCache(0)

    def test_exact_hit_miss_accounting(self):
        cache = RollupCache(4)
        assert cache.get("k", 0) is None
        cache.put("k", 0, "v")
        assert cache.get("k", 0) == "v"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_generation_mismatch_invalidates_and_misses(self):
        cache = RollupCache(4)
        cache.put("k", 0, "old")
        assert cache.get("k", 1) is None
        stats = cache.stats()
        assert stats["invalidations"] == 1 and stats["misses"] == 1
        assert len(cache) == 0

    def test_lru_eviction_order_and_counter(self):
        cache = RollupCache(2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh "a" -> "b" is now LRU
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.evictions == 1

    def test_registry_mirroring(self):
        registry = MetricsRegistry()
        cache = RollupCache(1, registry=registry)
        cache.get("k", 0)
        cache.put("k", 0, "v")
        cache.get("k", 0)
        cache.get("k", 1)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        counters = registry.snapshot()["counters"]
        assert counters["serve.cache_hits"] == 1
        assert counters["serve.cache_misses"] == 2
        assert counters["serve.cache_invalidations"] == 1
        assert counters["serve.cache_evictions"] == 1


class TestStoreGeneration:
    def test_new_store_starts_at_zero(self, tmp_path):
        assert TelemetryStore(tmp_path / "fresh").generation == 0

    def test_compact_bumps_generation(self, store):
        """Only a compaction that folds something bumps it; an append
        only grows a commit log, which the cache stamp sees by itself."""
        before = store.generation
        store.compact()  # the fixture compacted: nothing left to fold
        assert store.generation == before
        store.append(KEY, [200.0], [1.0])
        assert store.generation == before
        store.compact()
        assert store.generation > before

    def test_generation_survives_reopen(self, store):
        store.compact()
        assert TelemetryStore(store.root).generation == store.generation

    def test_truncate_bumps_generation(self, store):
        before = store.generation
        store.truncate_from(1.0)
        assert store.generation == before + 1

    def test_bumps_within_one_mtime_tick_are_seen(self, tmp_path):
        reader = TelemetryStore(tmp_path / "s")
        marker = reader.root / "store.json"
        assert reader.generation == 0
        before = marker.stat()
        # Another process bumps twice; the marker is then given back the
        # mtime the reader saw, as two bumps inside one coarse timestamp
        # tick would leave it.
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.store import TelemetryStore; "
             "s = TelemetryStore(sys.argv[1]); "
             "s.bump_generation(); s.bump_generation()",
             str(reader.root)],
            check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        os.utime(marker, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert marker.stat().st_mtime_ns == before.st_mtime_ns
        assert reader.generation == 2

    @staticmethod
    def _swap_marker(store, text):
        """Replace ``store.json`` by rename, as every marker write does."""
        tmp = store.root / "store.json.swap"
        tmp.write_text(text)
        os.replace(tmp, store.root / "store.json")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_unreadable_marker_is_loud(self, tmp_path, text):
        store = TelemetryStore(tmp_path / "s")
        store.bump_generation()
        self._swap_marker(store, text)
        marker = str(store.root / "store.json")
        with pytest.raises(StoreError, match="unreadable store marker") as got:
            store.generation
        assert marker in str(got.value)
        with pytest.raises(StoreError, match="unreadable store marker") as got:
            store.bump_generation()
        assert marker in str(got.value)
        assert (store.root / "store.json").read_text() == text

    def test_missing_marker_is_loud(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        (store.root / "store.json").unlink()
        with pytest.raises(StoreError, match="unreadable store marker"):
            store.generation
        with pytest.raises(StoreError, match="unreadable store marker"):
            store.bump_generation()

    def test_marker_without_generation_reads_zero(self, tmp_path):
        store = TelemetryStore(tmp_path / "s")
        self._swap_marker(
            store, '{"schema": "repro/store/v1", "time_unit": "hours"}'
        )
        assert store.generation == 0
        assert store.bump_generation() == 1
        assert TelemetryStore(store.root).generation == 1

    def test_unchanged_marker_is_not_reread(self, tmp_path, monkeypatch):
        reader = TelemetryStore(tmp_path / "s")
        assert reader.generation == 0

        def no_open(*_args, **_kwargs):
            raise AssertionError("an unchanged marker was re-read")

        monkeypatch.setattr("repro.store.store.open", no_open, raising=False)
        assert reader.generation == 0
