"""Open-loop HTTP load generator, run as its own process (stdlib only).

Usage::

    python3 perfbench/loadgen.py PORT SCHEDULE.json RESULTS.json CONNECTIONS

``SCHEDULE.json`` is a list of ``[offset_s, target]`` pairs.  Request
``i`` is due at ``start + offset_s``; a dispatcher thread releases it
at that time whatever the system is doing, and the first idle
keep-alive connection sends it.  Latency is measured from the due time to the
last body byte, so a stall also charges the requests queued behind it.

``late_s`` is the generator's own lateness: how long after both the due
time and the moment a connection became free the request was actually
sent.  Backlog caused by the server does not count as lateness.

The results file holds one record per request:
``[due, sent, done, status, body_bytes, body_sha256, late_s, error]``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import threading
import time
from typing import Any, List, Optional, Tuple

#: A request still unanswered after this long fails as a timeout.
REQUEST_TIMEOUT_S = 10.0

#: Lead time between start-up and the first due request.
LEAD_S = 0.2


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes, bool]:
    """(status, body, keep_alive) of one HTTP/1.1 response."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        parts = []
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                break
            parts.append(await reader.readexactly(size))
            await reader.readline()
        body = b"".join(parts)
    else:
        body = await reader.readexactly(int(headers.get("content-length", "0")))
    keep_alive = headers.get("connection", "").lower() != "close"
    return status, body, keep_alive


async def run(port: int, schedule: List[Tuple[float, str]], connections: int) -> dict:
    queue: asyncio.Queue = asyncio.Queue()
    results: List[Optional[list]] = [None] * len(schedule)
    # Connections open before the clock starts: a keep-alive client
    # pays its handshakes once, not inside the first requests.
    opened = [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(connections)
    ]
    start = time.monotonic() + LEAD_S

    loop = asyncio.get_running_loop()

    def dispatcher() -> None:
        # A thread with time.sleep wakes within tens of microseconds;
        # the event loop's own timers round up to whole milliseconds.
        for index, (offset, _target) in enumerate(schedule):
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            loop.call_soon_threadsafe(queue.put_nowait, index)
        for _ in range(connections):
            loop.call_soon_threadsafe(queue.put_nowait, None)

    async def connection(
        stream: Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    ) -> None:
        free_since = start
        while True:
            index = await queue.get()
            if index is None:
                break
            offset, target = schedule[index]
            due = start + offset
            sent = time.monotonic()
            late = sent - max(due, free_since)
            status, body, error = 0, b"", None
            try:
                if stream is None:
                    stream = await asyncio.open_connection("127.0.0.1", port)
                reader, writer = stream
                writer.write(
                    f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()
                )
                status, body, keep_alive = await asyncio.wait_for(
                    _read_response(reader), REQUEST_TIMEOUT_S
                )
                if not keep_alive:
                    writer.close()
                    stream = None
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                if stream is not None:
                    stream[1].close()
                    stream = None
            done = time.monotonic()
            free_since = done
            results[index] = [
                due, sent, done, status, len(body),
                hashlib.sha256(body).hexdigest(), late, error,
            ]
        if stream is not None:
            stream[1].close()

    releaser = threading.Thread(target=dispatcher, name="dispatcher")
    releaser.start()
    try:
        await asyncio.gather(*(connection(stream) for stream in opened))
    finally:
        releaser.join()
    return {"start": start, "results": results}


def main(argv: List[str]) -> int:
    port, schedule_path, results_path, connections = argv
    with open(schedule_path) as handle:
        schedule = [(float(o), str(t)) for o, t in json.load(handle)]
    report: Any = asyncio.run(run(int(port), schedule, int(connections)))
    with open(results_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
