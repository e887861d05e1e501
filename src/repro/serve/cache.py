"""Hot-rollup LRU cache with stamp invalidation.

The gateway's cache of query results, keyed by the caller (typically
``(kind, series label, window, resolution)``).  Every entry carries the
*stamp* the caller read before computing it: the store generation plus
the commit-log size of each building the query touched.  Within one
generation a log only grows, so an unchanged stamp means unchanged
answers, and a lookup under another stamp drops the entry.  That is
the entire invalidation contract: no TTLs, no background sweeper --
proved in ``tests/test_store_compact_query.py``.

Counter accounting is exact and scripted-test-friendly:

* ``hits``          -- entry present under the current stamp;
* ``misses``        -- every lookup that returns None (including ones
  caused by an invalidation);
* ``invalidations`` -- entry present under another stamp (dropped);
* ``evictions``     -- LRU entries pushed out by capacity.

When a :class:`~repro.obs.metrics.MetricsRegistry` is attached, the
same four counts are mirrored live as ``serve.cache_hits`` /
``serve.cache_misses`` / ``serve.cache_invalidations`` /
``serve.cache_evictions`` so a ``/metrics`` scrape sees them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from ..errors import StoreError
from ..obs.metrics import MetricsRegistry

#: Default number of cached blocks; sized for "hot dashboards" (a few
#: hundred distinct (series, window, resolution) combinations), not for
#: holding a whole store in memory.
DEFAULT_CACHE_ENTRIES = 512


class RollupCache:
    """Thread-safe LRU of ``key -> (stamp, value)`` entries."""

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_ENTRIES,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise StoreError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any]]" = OrderedDict()
        self._registry = registry
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _count(self, what: str) -> None:
        if self._registry is not None:
            self._registry.counter(f"serve.cache_{what}").inc()

    def get(self, key: Hashable, stamp: Hashable) -> Optional[Any]:
        """The cached value, or None on a miss (stale entries dropped)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == stamp:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
                return entry[1]
            if entry is not None:
                # Present but computed from rows that changed since.
                del self._entries[key]
                self.invalidations += 1
                self._count("invalidations")
            self.misses += 1
            self._count("misses")
            return None

    def put(self, key: Hashable, stamp: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry; LRU-evicts past capacity."""
        with self._lock:
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counter snapshot (what the benchmark records)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }
