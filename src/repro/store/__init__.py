"""repro.store: embedded telemetry time-series store.

The persistence layer under the smart-building vision: surveys and
campaign epochs are ingested into durable columnar segments and read
back through a vectorized query engine, which rolls raw samples up
into hourly and daily buckets on every read.  The HTTP API over a
store lives in :mod:`repro.serve`, which this package does not import.

Durability follows the campaign subsystem's rules: a sample is either
acknowledged by a record in its building's commit log or by a segment
manifest (each fsynced before it acknowledges anything), or it does
not exist; torn tails truncate loss-bounded; corruption is quarantined
and raised as :class:`~repro.errors.SegmentError` -- never silently
wrong data.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".compact": (
        "DAILY",
        "HOURLY",
        "RESOLUTIONS",
        "ROLLUP_WIDTHS",
        "compact_store",
        "rollup",
    ),
    ".ingest": (
        "ingest_campaign_result",
        "ingest_inventory",
        "ingest_reports",
        "ingest_series",
        "ingest_session",
    ),
    ".keys": (
        "MAX_NODE_ID",
        "OBS_BUILDING",
        "STRUCTURE_NODE_ID",
        "SeriesKey",
        "validate_component",
    ),
    ".lock": ("LOCK_FILENAME", "PartitionLock", "pid_alive"),
    ".query": ("AGGREGATIONS", "QueryEngine"),
    ".segment": ("RAW", "SEGMENT_SCHEMA", "SegmentDir"),
    ".store": ("STORE_SCHEMA", "StoreWriter", "TelemetryStore"),
})
