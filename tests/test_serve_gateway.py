"""Asyncio gateway tests: byte parity with the threaded server, cache
invalidation on compaction, load shedding, keep-alive, and drain."""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import gateway_background
from repro.store import SeriesKey, TelemetryStore, serve_background

KEY = SeriesKey("hq", "east", 1, "strain")
SERIES_QS = "building=hq&wall=east&node=1&metric=strain"


def _seed(tmp_path):
    store = TelemetryStore(tmp_path)
    hours = np.arange(0.0, 120.0, 0.5)
    store.append(KEY, hours, 120.0 + 2.0 * hours / 24.0)
    store.append(
        SeriesKey("hq", "east", 2, "strain"), hours, 118.0 + 0.1 * np.sin(hours)
    )
    store.compact()
    return store


@pytest.fixture()
def store(tmp_path):
    return _seed(tmp_path)


@pytest.fixture()
def gateway(store):
    gateway, thread = gateway_background(store, registry=MetricsRegistry())
    yield gateway
    gateway.shutdown()
    thread.join(timeout=5.0)


def request(port, method, target, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(method, target, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        lowered = {k.lower(): v for k, v in response.getheaders()}
        return response.status, lowered, body
    finally:
        conn.close()


#: The parity matrix: every row must come back byte-identical from the
#: threaded reference server and the asyncio gateway -- success and
#: error payloads alike.  (/metrics and /healthz carry uptime/registry
#: state and are deliberately not byte-comparable.)
PARITY_MATRIX = [
    ("GET", "/stats"),
    ("GET", f"/series?{SERIES_QS}"),
    ("GET", f"/series?{SERIES_QS}&t0=0&t1=10"),
    ("GET", f"/series?{SERIES_QS}&resolution=daily"),
    ("GET", f"/series?{SERIES_QS}&resolution=hourly&limit=7"),
    ("GET", "/aggregate?metric=strain&agg=mean&resolution=hourly"
            "&group_by=node"),
    ("GET", "/health?building=hq"),
    ("GET", "/nope"),
    ("GET", "/aggregate?agg=mean"),
    ("GET", f"/series?{SERIES_QS}&t0=nan"),
    ("GET", f"/series?{SERIES_QS}&t0=inf"),
    ("GET", f"/series?{SERIES_QS}&limit=5&cursor=%%%"),
    ("GET", f"/series?{SERIES_QS}&cursor=eyJvIjogMH0="),
    ("POST", "/stats"),
    ("PUT", f"/series?{SERIES_QS}"),
    ("DELETE", "/health?building=hq"),
    ("HEAD", "/stats"),
    ("HEAD", f"/series?{SERIES_QS}"),
]


class TestParity:
    @pytest.mark.parametrize("method,target", PARITY_MATRIX)
    def test_matrix_row_is_byte_identical(self, store, gateway, method, target):
        server, thread = serve_background(store, registry=MetricsRegistry())
        try:
            t_status, t_headers, t_body = request(server.port, method, target)
            g_status, g_headers, g_body = request(gateway.port, method, target)
            assert g_status == t_status
            assert g_body == t_body
            for header in ("content-type", "allow", "etag"):
                assert g_headers.get(header) == t_headers.get(header)
            if method == "HEAD":
                assert g_body == b""
                assert (
                    g_headers["content-length"] == t_headers["content-length"]
                )
        finally:
            server.shutdown()
            thread.join(timeout=5.0)

    def test_head_advertises_get_length(self, gateway):
        g_status, g_headers, _ = request(gateway.port, "HEAD", "/stats")
        _, _, get_body = request(gateway.port, "GET", "/stats")
        assert g_status == 200
        assert int(g_headers["content-length"]) == len(get_body)

    def test_405_payload_and_allow(self, gateway):
        status, headers, body = request(gateway.port, "POST", "/stats")
        assert status == 405
        assert headers["allow"] == "GET, HEAD"
        assert "read-only" in json.loads(body)["error"]


class TestCacheInvalidation:
    def test_compaction_never_serves_stale_bytes(self, tmp_path):
        """query -> compact -> query must re-read, with exact counters."""
        store = _seed(tmp_path)
        gateway, thread = gateway_background(store, registry=MetricsRegistry())
        target = f"/series?{SERIES_QS}&resolution=hourly"
        try:
            _, _, first = request(gateway.port, "GET", target)
            _, _, second = request(gateway.port, "GET", target)
            assert second == first  # hot hit serves the pinned bytes
            # New samples + compact rewrite the hourly rollup in place.
            store.append(
                KEY, np.arange(120.0, 144.0, 0.5), np.full(48, 999.0)
            )
            store.compact()
            _, _, third = request(gateway.port, "GET", target)
            assert third != first
            payload = json.loads(third)
            assert payload["rows"] > json.loads(first)["rows"]
            assert max(payload["columns"]["max"]) == 999.0
            stats = gateway.cache.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 2
            assert stats["invalidations"] == 1
            assert stats["evictions"] == 0
        finally:
            gateway.shutdown()
            thread.join(timeout=5.0)

    def test_truncate_invalidates_too(self, store, gateway):
        target = f"/series?{SERIES_QS}&resolution=daily"
        _, _, first = request(gateway.port, "GET", target)
        store.truncate_from(48.0)
        store.compact()
        _, _, after = request(gateway.port, "GET", target)
        assert json.loads(after)["rows"] < json.loads(first)["rows"]

    def test_raw_resolution_bypasses_cache(self, store, gateway):
        request(gateway.port, "GET", f"/series?{SERIES_QS}")
        request(gateway.port, "GET", f"/series?{SERIES_QS}")
        assert gateway.cache.stats()["hits"] == 0


class TestLoadShedding:
    def test_saturated_queue_sheds_503_with_retry_after(self, store):
        registry = MetricsRegistry()
        gateway, thread = gateway_background(
            store, registry=registry, workers=1, max_queue=1
        )
        entered = threading.Event()
        release = threading.Event()
        original = gateway.core.handle

        def gated(method, path, params, if_none_match=None):
            if path == "/stats":
                entered.set()
                release.wait(timeout=10.0)
            return original(method, path, params, if_none_match)

        gateway.core.handle = gated
        results = {}

        def occupy():
            results["slow"] = request(gateway.port, "GET", "/stats")

        worker = threading.Thread(target=occupy)
        worker.start()
        try:
            assert entered.wait(timeout=5.0)
            status, headers, body = request(gateway.port, "GET", "/stats")
            assert status == 503
            assert headers["retry-after"] == "1"
            assert "overloaded" in json.loads(body)["error"]
        finally:
            release.set()
            worker.join(timeout=5.0)
            gateway.shutdown()
            thread.join(timeout=5.0)
        assert results["slow"][0] == 200
        counters = registry.snapshot()["counters"]
        assert counters["serve.shed"] == 1
        assert 'serve.requests{path=/stats,status=503}' in counters
        assert 'serve.requests{path=/stats,status=200}' in counters


class TestTransport:
    def test_keep_alive_reuses_one_connection(self, gateway):
        conn = http.client.HTTPConnection(
            "127.0.0.1", gateway.port, timeout=10.0
        )
        try:
            bodies = []
            for _ in range(3):
                conn.request("GET", "/stats")
                response = conn.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                bodies.append(response.read())
            assert bodies[0] == bodies[1] == bodies[2]
        finally:
            conn.close()
        assert gateway.registry.snapshot()["counters"]["serve.connections"] == 1

    def test_large_bodies_stream_chunked(self, store):
        gateway, thread = gateway_background(
            store, registry=MetricsRegistry(), stream_chunk_bytes=512
        )
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=10.0
            )
            try:
                conn.request("GET", f"/series?{SERIES_QS}")
                response = conn.getresponse()
                assert response.getheader("Transfer-Encoding") == "chunked"
                chunked_body = response.read()
            finally:
                conn.close()
            _, _, plain = request(gateway.port, "GET", f"/series?{SERIES_QS}")
            assert chunked_body == plain
        finally:
            gateway.shutdown()
            thread.join(timeout=5.0)

    def test_etag_roundtrip_over_http(self, gateway):
        _, headers, _ = request(gateway.port, "GET", f"/series?{SERIES_QS}")
        status, revalidated, body = request(
            gateway.port, "GET", f"/series?{SERIES_QS}",
            headers={"If-None-Match": headers["etag"]},
        )
        assert status == 304
        assert body == b""
        assert revalidated["etag"] == headers["etag"]

    def test_malformed_request_line_is_400(self, gateway):
        import socket

        with socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=10.0
        ) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            # The gateway closes the connection after this 400, and the
            # status line may arrive in a different segment than the body.
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"malformed request line" in raw


class TestLifecycle:
    def test_graceful_drain_completes_in_flight_request(self, store):
        gateway, thread = gateway_background(
            store, registry=MetricsRegistry(), drain_grace_s=5.0
        )
        entered = threading.Event()
        original = gateway.core.handle

        def slow(method, path, params, if_none_match=None):
            entered.set()
            time.sleep(0.3)
            return original(method, path, params, if_none_match)

        gateway.core.handle = slow
        results = {}

        def do():
            results["r"] = request(gateway.port, "GET", "/stats")

        worker = threading.Thread(target=do)
        worker.start()
        assert entered.wait(timeout=5.0)
        gateway.request_shutdown()
        worker.join(timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results["r"][0] == 200
        assert json.loads(results["r"][2])["series_count"] == 2

    def test_shutdown_is_idempotent_and_threadsafe(self, store):
        gateway, thread = gateway_background(store, registry=MetricsRegistry())
        for _ in range(3):
            gateway.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        gateway.shutdown()  # after its loop has closed: still a no-op

    def test_port_unavailable_before_start(self, store):
        from repro.errors import StoreError
        from repro.serve import AsyncGateway

        with pytest.raises(StoreError, match="not started"):
            AsyncGateway(store).port


class TestGatewayMetrics:
    def test_metrics_exposes_gateway_counters(self, gateway):
        request(gateway.port, "GET", f"/series?{SERIES_QS}&resolution=hourly")
        request(gateway.port, "GET", f"/series?{SERIES_QS}&resolution=hourly")
        status, headers, body = request(gateway.port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert 'serve_requests{path="/series",status="200"} 2' in text
        assert "serve_cache_hits 1" in text
        assert "serve_cache_misses 1" in text
        assert "serve_connections" in text
        assert "serve_in_flight" in text
