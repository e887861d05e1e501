"""Gateway child: serves a store through ``AsyncGateway`` + ``run_gateway``.

Usage (launched by the read workloads, never by hand)::

    python3 perfbench/sut_gateway.py STORE TRACE

The gateway runs at its default settings (8 workers, queue 64, 512
cache entries) with observability off.  Protocol on stdout/stdin (see
:mod:`common`): ``{"imported": ..}``, then ``{"bound": port, "t": ..}``
once the port is bound.  Parent commands, one per line:

* ``{"cache": true}`` -- reply with ``RollupCache.stats()``;
* ``{"cpu": true}`` -- reply with this process's CPU clock;
* ``{"reset": true}`` -- drop the spans recorded so far;
* ``{"spans": true}`` -- reply with the spans recorded so far;
* ``{"stop": true}`` or end of input -- drain and exit.
"""

from __future__ import annotations

import sys
import threading
import time


def main(argv: list) -> int:
    store_dir, traced = argv
    from common import Channel, import_repro_here

    channel = Channel()
    import_repro_here()
    started = time.monotonic()
    import repro  # noqa: F401  (the measured import)
    imported = time.monotonic()
    from repro.serve import AsyncGateway, run_gateway
    from repro.store import TelemetryStore

    tracer = None
    if traced == "1":
        from spans import GATEWAY_CALLS, Tracer

        tracer = Tracer()
        tracer.install(GATEWAY_CALLS)
    channel.send(imported=True, import_s=imported - started, t=imported)
    gateway = AsyncGateway(TelemetryStore(store_dir, create=False))

    def control() -> None:
        while True:
            msg = channel.recv()
            if msg is None or msg.get("stop"):
                gateway.request_shutdown()
                return
            if msg.get("cache"):
                channel.send(cache=gateway.cache.stats())
            elif msg.get("cpu"):
                channel.send(cpu=time.process_time())
            elif msg.get("reset") and tracer is not None:
                tracer.spans = []
                channel.send(reset=True)
            elif msg.get("spans"):
                channel.send(spans=tracer.spans if tracer is not None else [])

    def ready(bound: AsyncGateway) -> None:
        channel.send(bound=bound.port, t=time.monotonic())
        threading.Thread(target=control, name="bench-control", daemon=True).start()

    run_gateway(gateway, ready=ready)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
