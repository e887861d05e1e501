"""HTTP serving-layer tests: endpoints, errors, and parity with the
in-process query engine."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import gateway_background
from repro.store import QueryEngine, SeriesKey, TelemetryStore


@pytest.fixture()
def served(tmp_path):
    store = TelemetryStore(tmp_path)
    hours = np.arange(0.0, 120.0, 0.5)
    store.append(
        SeriesKey("hq", "east", 1, "strain"),
        hours, 120.0 + 2.0 * hours / 24.0,
    )
    store.append(
        SeriesKey("hq", "east", 2, "strain"),
        hours, 118.0 + 0.1 * np.sin(hours),
    )
    store.compact()
    gateway, thread = gateway_background(store, registry=MetricsRegistry())
    yield store, f"http://127.0.0.1:{gateway.port}"
    gateway.shutdown()
    thread.join(timeout=5.0)


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.headers["Content-Type"] == "application/json"
        return json.load(response)


def _get_error(url):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(url, timeout=10.0)
    return excinfo.value.code, json.load(excinfo.value)


class TestEndpoints:
    def test_stats(self, served):
        store, base = served
        payload = _get(base + "/stats")
        assert payload["series_count"] == 2
        assert payload == json.loads(json.dumps(store.stats()))

    def test_series(self, served):
        store, base = served
        payload = _get(
            base + "/series?building=hq&wall=east&node=1&metric=strain"
            "&t0=0&t1=10"
        )
        local = store.read(
            SeriesKey("hq", "east", 1, "strain"), t0=0.0, t1=10.0
        )
        assert payload["rows"] == local["t"].size
        assert payload["columns"]["value"] == local["value"].tolist()

    def test_series_rollup(self, served):
        _, base = served
        payload = _get(
            base + "/series?building=hq&wall=east&node=1&metric=strain"
            "&resolution=daily"
        )
        assert payload["rows"] == 5
        assert set(payload["columns"]) == {"t", "min", "mean", "max", "count"}

    def test_aggregate_matches_engine(self, served):
        store, base = served
        payload = _get(
            base + "/aggregate?metric=strain&agg=mean&resolution=hourly"
            "&group_by=node"
        )
        local = QueryEngine(store).aggregate(
            "strain", "mean", resolution="hourly", group_by="node"
        )
        assert payload == json.loads(json.dumps(local))

    def test_health(self, served):
        _, base = served
        payload = _get(base + "/health?building=hq")
        assert payload["name"] == "hq"
        assert payload["degraded_walls"] == ["east"]
        assert {s["node_id"] for s in payload["attention"]} == {1}


class TestErrors:
    def test_unknown_path_404(self, served):
        _, base = served
        code, payload = _get_error(base + "/nope")
        assert code == 404 and "error" in payload

    def test_missing_parameter_400(self, served):
        _, base = served
        code, payload = _get_error(base + "/aggregate?agg=mean")
        assert code == 400 and "metric" in payload["error"]

    def test_bad_number_400(self, served):
        _, base = served
        code, _ = _get_error(
            base + "/series?building=hq&wall=east&node=1&metric=strain"
            "&t0=yesterday"
        )
        assert code == 400

    def test_bad_agg_400(self, served):
        _, base = served
        code, _ = _get_error(base + "/aggregate?metric=strain&agg=median")
        assert code == 400

    def test_unknown_building_400(self, served):
        _, base = served
        code, payload = _get_error(base + "/health?building=atlantis")
        assert code == 400 and "atlantis" in payload["error"]


def _get_text(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


class TestObservabilityEndpoints:
    def test_healthz_ok(self, served):
        _, base = served
        payload = _get(base + "/healthz")
        assert payload["status"] == "ok"
        assert payload["series_count"] == 2
        assert payload["quarantined_segments"] == 0
        assert payload["uptime_s"] >= 0.0
        assert "campaign" not in payload  # no heartbeat in this store

    def test_healthz_degraded_503_on_quarantine(self, served):
        store, base = served
        store.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (store.quarantine_dir / "segment.bad").write_bytes(b"corrupt")
        code, payload = _get_error(base + "/healthz")
        assert code == 503
        assert payload["status"] == "degraded"
        assert payload["quarantined_segments"] == 1

    def test_metrics_exposition_has_request_counters(self, served):
        _, base = served
        _get(base + "/stats")
        _get_error(base + "/nope")
        text = _get_text(base + "/metrics")
        assert "# TYPE serve_requests counter" in text
        assert 'serve_requests{path="/stats",status="200"} 1' in text
        # Unknown paths collapse into one label value (no cardinality
        # explosion from URL scanners).
        assert 'serve_requests{path="other",status="404"} 1' in text

    def test_metrics_exposition_has_latency_histograms(self, served):
        _, base = served
        _get(base + "/stats")
        text = _get_text(base + "/metrics")
        assert 'serve_request_s_bucket{path="/stats",le="+Inf"} 1' in text
        assert 'serve_request_s_count{path="/stats"} 1' in text

    def test_requests_accumulate_across_scrapes(self, served):
        _, base = served
        for _ in range(3):
            _get(base + "/stats")
        text = _get_text(base + "/metrics")
        assert 'serve_requests{path="/stats",status="200"} 3' in text
        # /metrics itself is measured from the next scrape on.
        text = _get_text(base + "/metrics")
        assert 'serve_requests{path="/metrics",status="200"} 1' in text

    def test_healthz_surfaces_campaign_heartbeat(self, tmp_path):
        from repro.store import OBS_BUILDING

        store = TelemetryStore(tmp_path / "hb")
        store.append(
            SeriesKey(OBS_BUILDING, "campaign", 0, "campaign.epoch"),
            [0.0, 24.0], [1.0, 2.0],
        )
        gateway, thread = gateway_background(store, registry=MetricsRegistry())
        try:
            payload = _get(f"http://127.0.0.1:{gateway.port}/healthz")
            assert payload["campaign"] == {
                "last_epoch": 2.0, "last_tick_hours": 24.0,
            }
        finally:
            gateway.shutdown()
            thread.join(timeout=5.0)
