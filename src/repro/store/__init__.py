"""repro.store: embedded telemetry time-series store.

The persistence layer under the smart-building vision: surveys and
campaign epochs are ingested into durable columnar segments, compacted
into multi-resolution rollups, and read back through a vectorized
query engine.  The HTTP API over a store lives in :mod:`repro.serve`,
which this package does not import.

Durability follows the campaign subsystem's rules: a sample is either
acknowledged by a segment's manifest or journal line (fsynced before
either was written), or it does not exist; torn tails truncate
loss-bounded; corruption is
quarantined and raised as :class:`~repro.errors.SegmentError` -- never
silently wrong data.
"""

from .compact import ROLLUP_WIDTHS, compact_store, rollup
from .ingest import (
    ingest_campaign_result,
    ingest_inventory,
    ingest_reports,
    ingest_series,
    ingest_session,
)
from .keys import (
    MAX_NODE_ID,
    OBS_BUILDING,
    STRUCTURE_NODE_ID,
    SeriesKey,
    validate_component,
)
from .lock import LOCK_FILENAME, PartitionLock, pid_alive
from .query import AGGREGATIONS, QueryEngine
from .segment import (
    DAILY,
    HOURLY,
    RAW,
    RESOLUTIONS,
    SEGMENT_SCHEMA,
    SegmentDir,
)
from .store import STORE_SCHEMA, StoreWriter, TelemetryStore

__all__ = [
    "AGGREGATIONS",
    "DAILY",
    "HOURLY",
    "LOCK_FILENAME",
    "MAX_NODE_ID",
    "OBS_BUILDING",
    "PartitionLock",
    "QueryEngine",
    "RAW",
    "RESOLUTIONS",
    "ROLLUP_WIDTHS",
    "SEGMENT_SCHEMA",
    "STORE_SCHEMA",
    "STRUCTURE_NODE_ID",
    "SegmentDir",
    "SeriesKey",
    "StoreWriter",
    "TelemetryStore",
    "compact_store",
    "ingest_campaign_result",
    "ingest_inventory",
    "ingest_reports",
    "ingest_series",
    "ingest_session",
    "pid_alive",
    "rollup",
    "validate_component",
]
