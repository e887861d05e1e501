"""Asyncio gateway tests: byte parity with the uncached in-process
core, cache invalidation on compaction, load shedding, keep-alive,
drain, and ``store serve`` as a CLI process."""

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import numpy as np
import pytest

from repro.cli import main
from repro.obs import MetricsRegistry
from repro.serve import EndpointCore, gateway_background
from repro.store import OBS_BUILDING, SeriesKey, TelemetryStore

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


def core_response(core, method, target):
    """The reference answer: the core called in-process, as the gateway
    would call it for this request line."""
    parts = urlsplit(target)
    return core.handle(method, parts.path, dict(parse_qsl(parts.query)))


def assert_matches_core(expected, method, status, headers, body):
    """One HTTP exchange (as :func:`request` returns it) against the
    core's response: status, body, Content-Type, Allow and ETag; HEAD
    sends no body but advertises the GET body's length."""
    assert status == expected.status
    assert headers.get("content-type") == expected.content_type
    reference = {name.lower(): value for name, value in expected.headers}
    for header in ("allow", "etag"):
        assert headers.get(header) == reference.get(header)
    if method == "HEAD":
        assert body == b""
        assert int(headers["content-length"]) == len(expected.body)
    else:
        assert body == expected.body


#: The parity matrix: every row must come back from the gateway exactly
#: as an uncached :class:`EndpointCore` answers it in-process -- success
#: and error payloads alike.  (/metrics and /healthz carry uptime and
#: registry state and are deliberately not byte-comparable.)
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
        core = EndpointCore(store, registry=MetricsRegistry())
        assert_matches_core(
            core_response(core, method, target), method,
            *request(gateway.port, method, target),
        )

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

    def test_concurrent_keep_alive_clients_get_core_bodies(self, store):
        registry = MetricsRegistry()
        gateway, thread = gateway_background(store, registry=registry)
        core = EndpointCore(store, registry=MetricsRegistry())
        expected = {}
        for method, target in PARITY_MATRIX:
            response = core_response(core, method, target)
            if method == "GET" and response.status == 200:
                expected[target] = response.body
        targets = sorted(expected)
        answers = []

        def client(offset):
            conn = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=10.0
            )
            try:
                for i in range(25):
                    target = targets[(offset + i) % len(targets)]
                    conn.request("GET", target)
                    response = conn.getresponse()
                    same = response.read() == expected[target]
                    answers.append((target, response.status, same))
            finally:
                conn.close()

        clients = [
            threading.Thread(target=client, args=(n,)) for n in range(8)
        ]
        try:
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(timeout=30.0)
            assert not any(worker.is_alive() for worker in clients)
        finally:
            gateway.shutdown()
            thread.join(timeout=5.0)
        assert len(answers) == 8 * 25
        assert [a for a in answers if a[1:] != (200, True)] == []
        counters = registry.snapshot()["counters"]
        assert counters.get("serve.shed", 0) == 0
        # One connection per client: keep-alive held for all 25 GETs.
        assert counters["serve.connections"] == 8

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


def stable_exchange(core, port, method, target, attempts=50):
    """One HTTP exchange bracketed by two equal core answers.

    A self-recording server appends ``_obs`` rows while it is queried,
    so ``/stats`` can move between the server's answer and the core's.
    The store only grows, so when the core answers the same before and
    after the exchange, the server saw that state too.
    """
    for _ in range(attempts):
        before = core_response(core, method, target)
        answer = request(port, method, target)
        if core_response(core, method, target) == before:
            return before, answer
    pytest.fail(f"{method} {target}: the store never held still")


class TestServeCli:
    def test_process_matches_core_self_records_and_drains(self, store):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "store", "serve",
                "--store", str(store.root), "--port", "0",
                "--self-record", "0.2",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready, "store serve never announced its port"
            first = proc.stdout.readline()
            announced = re.fullmatch(
                rf"serving {re.escape(str(store.root))} on "
                r"http://127\.0\.0\.1:(\d+)\n",
                first,
            )
            assert announced, first
            port = int(announced.group(1))

            core = EndpointCore(store, registry=MetricsRegistry())
            for method, target in PARITY_MATRIX:
                expected, answer = stable_exchange(core, port, method, target)
                assert_matches_core(expected, method, *answer)

            # A building appended while the process serves must show up,
            # answered exactly as a core opened after the append answers.
            late = "/aggregate?metric=strain&agg=count&building=late"
            assert json.loads(request(port, "GET", late)[2])["series"] == 0
            store.append(
                SeriesKey("late", "east", 1, "strain"), [1.0, 2.0], [5.0, 6.0]
            )
            fresh = EndpointCore(
                TelemetryStore(store.root, create=False),
                registry=MetricsRegistry(),
            )
            for target in ("/stats", late):
                expected, answer = stable_exchange(fresh, port, "GET", target)
                assert_matches_core(expected, "GET", *answer)
            assert json.loads(answer[2])["value"] == 2

            deadline = time.monotonic() + 10.0
            while True:
                _, _, body = request(port, "GET", "/stats")
                walls = {
                    (entry["key"]["building"], entry["key"]["wall"])
                    for entry in json.loads(body)["series"]
                }
                if (OBS_BUILDING, "serve") in walls:
                    break
                assert time.monotonic() < deadline, "no _obs/serve series"
                time.sleep(0.05)

            # An idle keep-alive client, parked across the drain: its
            # handler must see EOF and finish, not be cancelled.
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
            idle.request("GET", "/stats")
            assert idle.getresponse().read()
            try:
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10.0) == 0
            finally:
                idle.close()
            assert "Traceback" not in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()
            proc.stderr.close()

    def test_busy_port_exits_2_with_one_line(self, store, capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "store", "serve", "--store", str(store.root),
                    "--port", str(port),
                ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"store serve: cannot listen on 127.0.0.1:{port}:")
        assert "address already in use" in err
        assert err.count("\n") == 1

    def test_zero_workers_exits_2_with_one_line(self, store, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "store", "serve", "--store", str(store.root),
                "--port", "0", "--workers", "0",
            ])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "store serve: workers must be >= 1, got 0\n"
        )
