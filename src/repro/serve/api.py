"""The endpoint core behind the store's HTTP gateway.

Everything that decides *what bytes a query answers with* lives here --
parameter parsing/validation, routing, error mapping, the JSON
encoding, ETags, cursor pagination, and the optional hot-rollup cache.
The asyncio gateway (:mod:`repro.serve.gateway`) only owns transport
concerns (keep-alive, chunking, load shedding), so an uncached core
called in-process is the reference its responses are checked against,
error payloads included.

Endpoints (GET/HEAD only; any other method is 405 + ``Allow``):

* ``/health``     -- :meth:`QueryEngine.degradation_report`.
* ``/series``     -- one series' samples; supports ``limit``/``cursor``
  pagination and ETag/If-None-Match.
* ``/aggregate``  -- :meth:`QueryEngine.aggregate`; ETag/If-None-Match.
* ``/stats``      -- :meth:`TelemetryStore.stats`.
* ``/metrics``    -- the registry in Prometheus text exposition format.
* ``/healthz``    -- liveness (200 ok / 503 degraded on quarantine).

Bad queries return 400 with ``{"error": ...}``; unknown paths 404;
anything else 500.  Non-finite ``t0``/``t1``/``stale_hours`` values
(``nan``/``inf``) are rejected with 400 -- they would silently poison
every window comparison downstream.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..errors import ReproError, StoreError
from ..obs import MetricsRegistry, obs_registry, render_prometheus_text
from ..store.keys import OBS_BUILDING, STRUCTURE_NODE_ID, SeriesKey
from ..store.query import QueryEngine
from ..store.segment import RAW
from ..store.store import TelemetryStore
from .cache import RollupCache

#: Endpoints the core reports per-path metrics for.  Unknown paths
#: collapse into one ``other`` label so a URL-scanning client cannot
#: inflate the registry with unbounded label values.
KNOWN_ENDPOINTS = (
    "/aggregate", "/health", "/healthz", "/metrics", "/series", "/stats",
)

#: Endpoints that carry an ETag and honour ``If-None-Match``.
CONDITIONAL_ENDPOINTS = ("/aggregate", "/series")

#: The only methods this read-only API serves.
ALLOWED_METHODS = ("GET", "HEAD")

#: The ``Allow`` header value sent with every 405.
ALLOW_HEADER = "GET, HEAD"

JSON_CONTENT_TYPE = "application/json"
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def encode_json(payload: Any) -> bytes:
    """The one JSON encoding every response uses (byte-level contract)."""
    return json.dumps(payload).encode("utf-8")


def etag_for(body: bytes) -> str:
    """A strong ETag derived from the exact response bytes."""
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def encode_cursor(offset: int) -> str:
    """An opaque pagination cursor for ``offset`` (base64url JSON)."""
    raw = json.dumps({"o": int(offset)}).encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def decode_cursor(cursor: str) -> int:
    """Invert :func:`encode_cursor`; malformed cursors are a 400."""
    try:
        payload = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        offset = payload["o"]
    except (ValueError, KeyError, TypeError, binascii.Error):
        raise StoreError(f"malformed pagination cursor {cursor!r}")
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
        raise StoreError(f"malformed pagination cursor {cursor!r}")
    return offset


def _opt_float(params: Dict[str, str], name: str) -> Optional[float]:
    if name not in params:
        return None
    try:
        value = float(params[name])
    except ValueError:
        raise StoreError(f"query parameter {name!r} must be a number")
    if not math.isfinite(value):
        raise StoreError(
            f"query parameter {name!r} must be finite, "
            f"got {params[name]!r}"
        )
    return value


def _opt_positive_int(params: Dict[str, str], name: str) -> Optional[int]:
    if name not in params:
        return None
    try:
        value = int(params[name])
    except ValueError:
        raise StoreError(f"query parameter {name!r} must be an integer")
    if value < 1:
        raise StoreError(f"query parameter {name!r} must be >= 1")
    return value


def _require(params: Dict[str, str], name: str) -> str:
    try:
        return params[name]
    except KeyError:
        raise StoreError(f"missing required query parameter {name!r}")


def _int(params: Dict[str, str], name: str) -> int:
    raw = _require(params, name)
    try:
        return int(raw)
    except ValueError:
        raise StoreError(f"query parameter {name!r} must be an integer")


@dataclass
class Response:
    """One finished HTTP response, transport-agnostic.

    ``body`` is always the full GET body; a server answering HEAD sends
    the same status/headers (including ``Content-Length``) and omits
    the bytes.
    """

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    headers: Tuple[Tuple[str, str], ...] = ()


class _Block:
    """A cached query result with its lazily rendered body.

    The cache holds the *decoded* rollup block (numpy columns or the
    aggregate payload); the first unpaginated request renders and pins
    the JSON bytes so subsequent hot hits skip both the segment read
    and the encode.  Rendering twice under a benign race produces the
    same bytes, so no lock is needed.
    """

    __slots__ = ("value", "body")

    def __init__(self, value: Any):
        self.value = value
        self.body: Optional[bytes] = None

    def render(self, payload: Any) -> bytes:
        if self.body is None:
            self.body = encode_json(payload)
        return self.body


class EndpointCore:
    """Routing + response construction behind the gateway.

    Args:
        store: The telemetry store to serve.
        registry: Metrics registry for the per-endpoint request
            counters/histograms.  Defaults to the live obs registry,
            else a private one -- ``/metrics`` always has something
            real to expose.
        cache: Optional :class:`RollupCache`.  The gateway attaches
            one; without it the core is the uncached reference its
            responses are checked against.  Only hourly/daily
            resolutions are cached -- raw windows are unbounded and
            already ride the segment block index.
    """

    def __init__(
        self,
        store: TelemetryStore,
        registry: Optional[MetricsRegistry] = None,
        cache: Optional[RollupCache] = None,
    ):
        self.store = store
        self.engine = QueryEngine(store)
        self.registry = (
            registry if registry is not None
            else (obs_registry() or MetricsRegistry())
        )
        self.cache = cache
        self.started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # The request entry point
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        if_none_match: Optional[str] = None,
    ) -> Response:
        """Answer one request; never raises (errors become responses)."""
        method = method.upper()
        if method not in ALLOWED_METHODS:
            return Response(
                405,
                encode_json({
                    "error": (
                        f"method {method} not allowed; "
                        "this API is read-only (GET, HEAD)"
                    )
                }),
                headers=(("Allow", ALLOW_HEADER),),
            )
        try:
            if path == "/metrics":
                # Rendered before observe_request, so the scrape a
                # client reads never includes the scrape itself --
                # each sample shows up from the *next* scrape on.
                return Response(
                    200,
                    self.metrics_text().encode("utf-8"),
                    content_type=METRICS_CONTENT_TYPE,
                )
            if path == "/healthz":
                payload, status = self.healthz()
                return Response(status, encode_json(payload))
            body = self._routed_body(path, params)
            if path in CONDITIONAL_ENDPOINTS:
                etag = etag_for(body)
                if if_none_match is not None and etag in (
                    tag.strip() for tag in if_none_match.split(",")
                ):
                    return Response(304, b"", headers=(("ETag", etag),))
                return Response(200, body, headers=(("ETag", etag),))
            return Response(200, body)
        except LookupError:
            return Response(
                404, encode_json({"error": f"no such endpoint {path!r}"})
            )
        except (StoreError, ReproError) as exc:
            return Response(400, encode_json({"error": str(exc)}))
        except Exception as exc:  # pragma: no cover - defensive
            return Response(
                500, encode_json({"error": f"internal error: {exc!r}"})
            )

    def observe_request(
        self, path: str, status: int, elapsed_s: float
    ) -> None:
        """Fold one handled request into the registry."""
        endpoint = path if path in KNOWN_ENDPOINTS else "other"
        self.registry.counter("serve.requests").labels(
            path=endpoint, status=status
        ).inc()
        self.registry.histogram("serve.request_s").labels(
            path=endpoint
        ).observe(elapsed_s)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _routed_body(self, path: str, params: Dict[str, str]) -> bytes:
        if path == "/series":
            return self._series_body(params)
        if path == "/aggregate":
            return self._aggregate_body(params)
        if path == "/stats":
            return encode_json(self.store.stats())
        if path == "/health":
            return encode_json(self.engine.degradation_report(
                _require(params, "building"),
                t0=_opt_float(params, "t0"),
                t1=_opt_float(params, "t1"),
                strain_metric=params.get("metric", "strain"),
                stale_hours=_opt_float(params, "stale_hours"),
            ))
        raise LookupError(path)

    # ------------------------------------------------------------------
    # /series (cache + pagination)
    # ------------------------------------------------------------------

    def _series_body(self, params: Dict[str, str]) -> bytes:
        key = SeriesKey(
            building=_require(params, "building"),
            wall=_require(params, "wall"),
            node_id=_int(params, "node"),
            metric=_require(params, "metric"),
        )
        resolution = params.get("resolution", RAW)
        t0 = _opt_float(params, "t0")
        t1 = _opt_float(params, "t1")
        limit = _opt_positive_int(params, "limit")
        if limit is None and "cursor" in params:
            raise StoreError(
                "query parameter 'cursor' requires 'limit' (pagination)"
            )
        block = self._series_block(key, t0, t1, resolution)
        data = block.value
        total = int(data["t"].size)
        if limit is None:
            payload = {
                "key": key.to_dict(),
                "resolution": resolution,
                "rows": total,
                "columns": {
                    name: column.tolist() for name, column in data.items()
                },
            }
            return block.render(payload)
        offset = (
            decode_cursor(params["cursor"]) if "cursor" in params else 0
        )
        end = min(offset + limit, total)
        next_offset = end if end < total else None
        payload = {
            "key": key.to_dict(),
            "resolution": resolution,
            "rows": max(0, end - offset),
            "total_rows": total,
            "page": {
                "limit": limit,
                "offset": offset,
                "next_cursor": (
                    None if next_offset is None
                    else encode_cursor(next_offset)
                ),
            },
            "columns": {
                name: column[offset:end].tolist()
                for name, column in data.items()
            },
        }
        return encode_json(payload)

    def _series_block(
        self,
        key: SeriesKey,
        t0: Optional[float],
        t1: Optional[float],
        resolution: str,
    ) -> _Block:
        if self.cache is None or resolution == RAW:
            return _Block(
                self.engine.series(key, t0=t0, t1=t1, resolution=resolution)
            )
        stamp = self._stamp([key.building])
        cache_key = ("series", key.label(), t0, t1, resolution)
        block = self.cache.get(cache_key, stamp)
        if block is None:
            block = _Block(
                self.engine.series(key, t0=t0, t1=t1, resolution=resolution)
            )
            self.cache.put(cache_key, stamp, block)
        return block

    def _stamp(self, buildings: List[str]) -> Hashable:
        """The store generation and each building's commit-log size.

        Read *before* the data: a change landing in between leaves the
        entry an old stamp, and the next lookup invalidates it.
        """
        return (self.store.generation,) + tuple(
            (building, self.store.log_size(building)) for building in buildings
        )

    # ------------------------------------------------------------------
    # /aggregate (cache)
    # ------------------------------------------------------------------

    def _aggregate_body(self, params: Dict[str, str]) -> bytes:
        resolution = params.get("resolution", RAW)
        if self.cache is None or resolution == RAW:
            return encode_json(self._aggregate_payload(params))
        stamp = self._stamp(
            [params["building"]] if "building" in params
            else self.store.buildings()
        )
        cache_key = ("aggregate",) + tuple(sorted(params.items()))
        block = self.cache.get(cache_key, stamp)
        if block is None:
            block = _Block(self._aggregate_payload(params))
            self.cache.put(cache_key, stamp, block)
        return block.render(block.value)

    def _aggregate_payload(self, params: Dict[str, str]) -> Dict[str, Any]:
        node = params.get("node")
        return self.engine.aggregate(
            metric=_require(params, "metric"),
            agg=params.get("agg", "mean"),
            building=params.get("building"),
            wall=params.get("wall"),
            node_id=None if node is None else _int(params, "node"),
            t0=_opt_float(params, "t0"),
            t1=_opt_float(params, "t1"),
            resolution=params.get("resolution", RAW),
            group_by=params.get("group_by"),
        )

    # ------------------------------------------------------------------
    # Operational endpoints
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus_text(self.registry.snapshot())

    def healthz(self) -> Tuple[Dict[str, Any], int]:
        """Liveness payload and its HTTP status (200 ok / 503 degraded).

        ``ok`` means the store is readable and nothing is quarantined.
        When a campaign heartbeat exists under ``_obs/campaign`` its
        last epoch/tick ride along, so one probe answers both "is the
        store serving" and "is the pilot still advancing".
        """
        quarantined = (
            sum(1 for _ in self.store.quarantine_dir.iterdir())
            if self.store.quarantine_dir.is_dir()
            else 0
        )
        payload: Dict[str, Any] = {
            "status": "ok" if quarantined == 0 else "degraded",
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "series_count": len(self.store.keys()),
            "quarantined_segments": quarantined,
        }
        heartbeat = SeriesKey(
            building=OBS_BUILDING, wall="campaign",
            node_id=STRUCTURE_NODE_ID, metric="campaign.epoch",
        )
        try:
            latest = self.engine.latest(heartbeat)
        except (StoreError, ReproError):
            latest = None
        if latest is not None:
            payload["campaign"] = {
                "last_epoch": latest["value"],
                "last_tick_hours": latest["t"],
            }
        return payload, (200 if payload["status"] == "ok" else 503)
