"""In-memory spans around the program's public calls, wrapped from outside.

A benchmark process that runs traced installs a :class:`Tracer` before
its workload starts.  Each wrapped call records one span -- id, parent
id, name, layer, start, end, thread and the epoch or request it belongs
to -- in memory; nothing is written until the process hands its spans
to the parent, which writes one Chrome trace for the whole run.

Layers are the program's top-level module names (``link``, ``campaign``,
``runtime``, ``store``, ``query`` for ``repro.store.query``, ``shm``,
``serve``, ``faults``) plus ``os`` for ``os.fsync``.  Spans nest per
thread, so a span's direct children never overlap each other and its
self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Span record fields (plain lists keep the recorder cheap and JSON-ready).
SID, PARENT, NAME, LAYER, T0, T1, TID, TAG, EXTRA = range(9)


def _written_size(args: Sequence[Any], _result: Any) -> Dict[str, Any]:
    path = os.fspath(args[0])
    return {"file": os.path.basename(path), "bytes": os.stat(path).st_size}


#: (module, class or None, attribute, layer, root, measure) for the
#: campaign processes: the epoch's physics, its durability path and
#: the resume path.
CAMPAIGN_CALLS: Tuple[tuple, ...] = (
    ("repro.link.session", "WallSession", "run", "link", False, None),
    ("repro.campaign.driver", "Campaign", "resume", "campaign", False, None),
    ("repro.campaign.checkpoint", "CheckpointStore", "save", "campaign", False, None),
    ("repro.campaign.checkpoint", "CheckpointStore", "load_latest", "campaign", False, None),
    ("repro.campaign.log", "EpochLog", "append", "campaign", False, None),
    ("repro.campaign.log", "EpochLog", "recover", "campaign", False, None),
    ("repro.runtime.serialize", None, "write_json_atomic", "runtime", False, _written_size),
    ("repro.runtime.serialize", None, "write_json_atomic_verified", "runtime", False, None),
    ("repro.store.store", "StoreWriter", "flush", "store", False, None),
    ("repro.store.lock", "PartitionLock", "acquire", "store", False, None),
    ("repro.faults.io", None, "reclaim_tmp_files", "faults", False, None),
    ("repro.store.segment", "SegmentDir", "append_block", "store", False, None),
    ("repro.store.segment", "SegmentDir", "read", "store", False, None),
    ("repro.store.store", "TelemetryStore", "keys", "store", False, None),
    ("repro.store.store", "TelemetryStore", "truncate_from", "store", False, None),
    ("repro.store.compact", None, "compact_store", "store", False, None),
    ("os", None, "fsync", "os", False, None),
)

#: The gateway process: one root span per ``EndpointCore.handle`` call,
#: with the query engine, segment reads, store scans and encoding below.
GATEWAY_CALLS: Tuple[tuple, ...] = (
    ("repro.serve.api", "EndpointCore", "handle", "serve", True, None),
    ("repro.serve.api", None, "encode_json", "serve", False, None),
    ("repro.store.query", "QueryEngine", "series", "query", False, None),
    ("repro.store.query", "QueryEngine", "aggregate", "query", False, None),
    ("repro.store.query", "QueryEngine", "degradation_report", "query", False, None),
    ("repro.store.segment", "SegmentDir", "read", "store", False, None),
    ("repro.store.store", "TelemetryStore", "keys", "store", False, None),
    ("repro.store.store", "TelemetryStore", "generation", "store", False, None),
    ("repro.shm.building", "BuildingMonitor", "to_dict", "shm", False, None),
    ("repro.shm.damage", "DamageDetector", "detect", "shm", False, None),
)


class Tracer:
    """Records spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tag: Optional[int] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, tag: Optional[int] = None) -> list:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None:
            tag = parent[TAG] if parent is not None else self.tag
        span = [
            next(self._ids), parent[SID] if parent is not None else 0,
            name, layer, time.monotonic(), None,
            threading.get_ident(), tag, None,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[T1] = time.monotonic()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        stack.pop()
        self.spans.append(span)

    def _call(
        self, name: str, layer: str, root: bool,
        measure: Optional[Callable], fn: Callable, args: tuple, kwargs: dict,
    ) -> Any:
        span = self.begin(name, layer, next(self._requests) if root else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        if measure is not None:
            span[EXTRA] = measure(args, result)
        return result

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def install(self, calls: Sequence[tuple]) -> None:
        for module_name, owner_name, attr, layer, root, measure in calls:
            module = importlib.import_module(module_name)
            name = f"{owner_name}.{attr}" if owner_name else attr
            call = functools.partial(self._call, name, layer, root, measure)
            if owner_name is None:
                self._wrap_function(module, attr, call)
            else:
                self._wrap_member(getattr(module, owner_name), attr, call)

    def _wrap_member(self, owner: type, attr: str, call: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, property):
            fget = raw.fget
            new: Any = property(
                lambda obj: call(fget, (obj,), {}), raw.fset, raw.fdel, raw.__doc__
            )
        elif isinstance(raw, classmethod):
            func = raw.__func__
            new = classmethod(
                functools.wraps(func)(lambda *a, **k: call(func, a, k))
            )
        else:
            new = functools.wraps(raw)(lambda *a, **k: call(raw, a, k))
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def _wrap_function(self, module: Any, attr: str, call: Callable) -> None:
        raw = getattr(module, attr)
        new = functools.wraps(raw)(lambda *a, **k: call(raw, a, k))
        # Callers that imported the name hold their own reference.
        holders = [module] + [
            mod for name, mod in list(sys.modules.items())
            if name.startswith("repro") and mod is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, new)
                    self._undo.append((holder, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


# ----------------------------------------------------------------------
# Analysis (parent side)
# ----------------------------------------------------------------------


def with_self_times(spans: Sequence[list]) -> List[Tuple[list, float]]:
    """Each span paired with its self time (one process's spans)."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT]:
            covered[span[PARENT]] += span[T1] - span[T0]
    return [(span, span[T1] - span[T0] - covered[span[SID]]) for span in spans]


def chrome_events(spans: Sequence[list], pid: int, label: str) -> List[dict]:
    """Chrome trace-event records ("X" complete events, microseconds)."""
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": label},
    }]
    for span in spans:
        args = {"id": span[SID], "parent": span[PARENT], "tag": span[TAG]}
        if span[EXTRA]:
            args.update(span[EXTRA])
        events.append({
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "ts": span[T0] * 1e6, "dur": (span[T1] - span[T0]) * 1e6,
            "pid": pid, "tid": span[TID], "args": args,
        })
    return events
