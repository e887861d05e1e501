"""repro.serve: the HTTP serving tier over the telemetry store.

:class:`AsyncGateway` (:mod:`repro.serve.gateway`) is the store's one
HTTP server: an asyncio HTTP/1.1 gateway with connection reuse, a
bounded worker pool over segment reads, explicit load shedding (503 +
``Retry-After`` instead of unbounded queueing), an LRU cache of hot
rollup answers stamped with the store generation and the commit-log
sizes they were computed from, ETag/If-None-Match, cursor pagination
with chunked streaming for long windows, and graceful drain on
SIGINT/SIGTERM.

Every response body comes from :class:`EndpointCore`
(:mod:`repro.serve.api`); an uncached core called in-process is the
reference the gateway's responses are checked against.

See ``docs/SERVING.md`` for the architecture and the cache-invalidation
contract; ``perfbench/`` measures the gateway under load from separate
processes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": (
        "CONDITIONAL_ENDPOINTS",
        "KNOWN_ENDPOINTS",
        "EndpointCore",
        "Response",
        "decode_cursor",
        "encode_cursor",
        "encode_json",
    ),
    ".cache": ("RollupCache",),
    ".gateway": ("AsyncGateway", "gateway_background", "run_gateway"),
})
