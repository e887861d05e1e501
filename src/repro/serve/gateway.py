"""The asyncio query gateway: connection reuse, bounded workers, shedding.

:class:`AsyncGateway` is the store's HTTP/1.1 server, built on
``asyncio.start_server`` in front of
:class:`~repro.serve.api.EndpointCore`.  Design points:

* **The event loop never touches the disk.**  Every request body is
  computed by ``loop.run_in_executor`` on a bounded thread pool
  (``workers``), so a slow segment read stalls one worker, not the
  accept/parse/write loop.
* **Explicit backpressure.**  At most ``max_queue`` requests may be
  queued-or-executing; request ``max_queue + 1`` is answered *inline*
  with ``503`` + ``Retry-After`` (and counted as ``serve.shed``)
  instead of joining an unbounded pile-up.  A shed request costs the
  event loop microseconds, which is the point: under overload the
  gateway stays responsive and tells clients when to come back.
* **Connection reuse.**  HTTP/1.1 keep-alive by default; bodies past
  ``stream_chunk_bytes`` are written with chunked transfer encoding so
  long windows stream in bounded pieces.
* **Graceful drain.**  :func:`run_gateway` installs SIGINT/SIGTERM
  handlers that stop accepting, wait up to ``drain_grace_s`` for
  in-flight requests, then close every connection and wait for its
  handler to finish -- a deploy never kills a response mid-body, and
  an idle keep-alive client does not leave a cancelled handler behind.

Instrumentation (all on the gateway's registry, scrapeable from its
own ``/metrics``): per-endpoint ``serve.requests``/``serve.request_s``
via the core, plus ``serve.shed``, ``serve.connections`` and the
``serve.in_flight`` gauge; the rollup cache mirrors
``serve.cache_hits|misses|evictions|invalidations``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..errors import StoreError
from ..obs import MetricsRegistry, obs_registry
from ..store.store import TelemetryStore
from .api import EndpointCore, Response, encode_json
from .cache import DEFAULT_CACHE_ENTRIES, RollupCache

#: Reason phrases for the statuses the core can produce.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body the gateway will drain (GETs have none; this
#: only bounds a misbehaving client before the 405 goes out).
_MAX_REQUEST_BODY = 1 << 20

#: The shed response body (shared; rendered once).
_SHED_BODY = encode_json(
    {"error": "server overloaded; retry after the Retry-After delay"}
)


class AsyncGateway:
    """One asyncio gateway bound to one store; port 0 is ephemeral."""

    def __init__(
        self,
        store: TelemetryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        workers: int = 8,
        max_queue: int = 64,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        stream_chunk_bytes: int = 64 * 1024,
        drain_grace_s: float = 5.0,
        retry_after_s: int = 1,
    ):
        if workers < 1:
            raise StoreError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise StoreError(f"max_queue must be >= 1, got {max_queue}")
        self.host = host
        self.requested_port = port
        self.workers = workers
        self.max_queue = max_queue
        self.stream_chunk_bytes = int(stream_chunk_bytes)
        self.drain_grace_s = float(drain_grace_s)
        self.retry_after_s = int(retry_after_s)
        self.registry = (
            registry if registry is not None
            else (obs_registry() or MetricsRegistry())
        )
        self.cache = RollupCache(cache_entries, registry=self.registry)
        self.core = EndpointCore(store, registry=self.registry, cache=self.cache)
        self._port: Optional[int] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._in_flight = 0
        #: Open connections: each writer and the task that handles it.
        self._writers: Dict[asyncio.StreamWriter, asyncio.Task] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise StoreError("gateway is not started")
        return self._port

    @property
    def store(self) -> TelemetryStore:
        return self.core.store

    async def start(self) -> None:
        """Bind and start accepting (call from inside a running loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.requested_port
        )
        self._port = int(self._server.sockets[0].getsockname()[1])
        self._started.set()

    async def wait_stopped(self) -> None:
        await self._stop.wait()

    def request_shutdown(self) -> None:
        """Ask the gateway to drain and stop (safe from any thread)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # the loop has closed: the gateway already stopped

    shutdown = request_shutdown

    async def drain(self) -> None:
        """Stop accepting, wait for in-flight work, then tear down.

        Closing a connection hands its handler an EOF; the handlers are
        awaited (within the same ``drain_grace_s``) so none is left for
        ``asyncio.run`` to cancel.
        """
        if self._stop is not None:
            self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_grace_s
        while self._in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        handlers = list(self._writers.values())
        for writer in list(self._writers):
            writer.close()
        if handlers:
            await asyncio.wait(
                handlers, timeout=max(0.0, deadline - time.monotonic())
            )
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    async def run(
        self,
        install_signals: bool = False,
        ready: Optional[Callable[["AsyncGateway"], None]] = None,
    ) -> None:
        """start -> (announce) -> serve until stopped -> drain."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix loop / nested loop: Ctrl-C still works
        if ready is not None:
            ready(self)
        await self.wait_stopped()
        await self.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.registry.counter("serve.connections").inc()
        self._writers[writer] = asyncio.current_task()
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, version, headers = request
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                    and not (self._stop is not None and self._stop.is_set())
                )
                if method == "":
                    await self._write_response(
                        writer, "GET",
                        Response(400, encode_json(
                            {"error": "malformed request line"}
                        )),
                        keep_alive=False,
                    )
                    break
                parsed = urlsplit(target)
                params = dict(parse_qsl(parsed.query))
                started = time.perf_counter()
                if self._in_flight >= self.max_queue:
                    # Shed inline: the worker pool is saturated and the
                    # queue is full -- refuse loudly instead of queueing.
                    self.registry.counter("serve.shed").inc()
                    response = Response(
                        503, _SHED_BODY,
                        headers=(("Retry-After", str(self.retry_after_s)),),
                    )
                    self.core.observe_request(
                        parsed.path, response.status,
                        time.perf_counter() - started,
                    )
                    await self._write_response(
                        writer, method, response, keep_alive
                    )
                else:
                    # In-flight covers executor time *and* the response
                    # write, so a graceful drain never closes a writer
                    # that still owes bytes.
                    self._in_flight += 1
                    self.registry.gauge("serve.in_flight").set(self._in_flight)
                    try:
                        response = await asyncio.get_running_loop().run_in_executor(
                            self._executor,
                            self.core.handle,
                            method,
                            parsed.path,
                            params,
                            headers.get("if-none-match"),
                        )
                        self.core.observe_request(
                            parsed.path, response.status,
                            time.perf_counter() - started,
                        )
                        await self._write_response(
                            writer, method, response, keep_alive
                        )
                    finally:
                        self._in_flight -= 1
                        self.registry.gauge("serve.in_flight").set(
                            self._in_flight
                        )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._writers.pop(writer, None)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
        """One parsed request, ``("", ...)`` if malformed, None on EOF."""
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return ("", "/", "HTTP/1.0", {})
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        bad = len(parts) != 3
        method, target, version = (
            ("", "/", "HTTP/1.0") if bad else (parts[0], parts[1], parts[2])
        )
        headers: Dict[str, str] = {}
        while True:
            try:
                header_line = await reader.readline()
            except (ValueError, ConnectionError):
                return ("", "/", "HTTP/1.0", {})
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            body_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            body_length = 0
        if 0 < body_length <= _MAX_REQUEST_BODY:
            with contextlib.suppress(asyncio.IncompleteReadError):
                await reader.readexactly(body_length)  # drained, ignored
        elif body_length > _MAX_REQUEST_BODY:
            return ("", target, version, headers)
        return (method, target, version, headers)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        response: Response,
        keep_alive: bool,
    ) -> None:
        body = b"" if method == "HEAD" else response.body
        chunked = (
            keep_alive
            and body
            and len(body) > self.stream_chunk_bytes
        )
        headers = [("Content-Type", response.content_type)]
        headers.extend(response.headers)
        if chunked:
            headers.append(("Transfer-Encoding", "chunked"))
        else:
            # HEAD advertises the GET body's length with an empty body.
            headers.append(("Content-Length", str(len(response.body))))
        headers.append(
            ("Connection", "keep-alive" if keep_alive else "close")
        )
        reason = _REASONS.get(response.status, "OK")
        head = f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers
        ) + "\r\n"
        writer.write(head.encode("latin-1"))
        if chunked:
            step = self.stream_chunk_bytes
            for start in range(0, len(body), step):
                piece = body[start:start + step]
                writer.write(f"{len(piece):x}\r\n".encode("ascii"))
                writer.write(piece)
                writer.write(b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
        else:
            writer.write(body)
        await writer.drain()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_gateway(
    gateway: AsyncGateway,
    ready: Optional[Callable[[AsyncGateway], None]] = None,
) -> None:
    """Run a gateway in the current thread until SIGINT/SIGTERM.

    The CLI's blocking entry point: installs signal handlers, calls
    ``ready(gateway)`` once the port is bound (the CLI announces the
    URL there), and returns after a graceful drain.
    """
    asyncio.run(gateway.run(install_signals=True, ready=ready))


def gateway_background(
    store: TelemetryStore,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    **kwargs: Any,
) -> Tuple[AsyncGateway, threading.Thread]:
    """Start a gateway on a daemon thread; caller owns ``.shutdown()``."""
    gateway = AsyncGateway(
        store, host=host, port=port, registry=registry, **kwargs
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(gateway.run()),
        name="serve-gateway", daemon=True,
    )
    thread.start()
    if not gateway._started.wait(timeout=10.0):
        raise StoreError("gateway failed to start within 10 s")
    return gateway, thread
