"""repro.serve: the HTTP serving tier over the telemetry store.

:class:`AsyncGateway` (:mod:`repro.serve.gateway`) is the store's one
HTTP server: an asyncio HTTP/1.1 gateway with connection reuse, a
bounded worker pool over segment reads, explicit load shedding (503 +
``Retry-After`` instead of unbounded queueing), an LRU cache of hot
rollup blocks invalidated by the store's compaction generation
counter, ETag/If-None-Match, cursor pagination with chunked streaming
for long windows, and graceful drain on SIGINT/SIGTERM.

Every response body comes from :class:`EndpointCore`
(:mod:`repro.serve.api`); an uncached core called in-process is the
reference the gateway's responses are checked against.

See ``docs/SERVING.md`` for the architecture and the cache-invalidation
contract; ``perfbench/`` measures the gateway under load from separate
processes.
"""

from .api import (
    CONDITIONAL_ENDPOINTS,
    KNOWN_ENDPOINTS,
    EndpointCore,
    Response,
    decode_cursor,
    encode_cursor,
    encode_json,
)
from .cache import RollupCache
from .gateway import AsyncGateway, gateway_background, run_gateway

__all__ = [
    "AsyncGateway",
    "CONDITIONAL_ENDPOINTS",
    "EndpointCore",
    "KNOWN_ENDPOINTS",
    "Response",
    "RollupCache",
    "decode_cursor",
    "encode_cursor",
    "encode_json",
    "gateway_background",
    "run_gateway",
]
