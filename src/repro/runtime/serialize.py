"""Dataclass-to-JSON serialization for experiment results.

Every ``experiments.*.run(...)`` returns a (frozen) dataclass tree mixing
plain scalars, dicts, tuples and numpy arrays.  This module flattens that
tree into pure-JSON values so results can be written to disk, diffed,
cached content-addressed, and re-read without importing the library.

Two invariants matter for the determinism test-layer:

* **canonical form** -- ``canonical_json`` sorts keys and uses fixed
  separators, so the same result object always produces the same bytes;
* **lossless floats** -- non-finite floats (which JSON cannot express)
  are encoded as ``{"__nonfinite__": "inf" | "-inf" | "nan"}`` markers
  instead of being silently dropped or emitted as invalid JSON.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from ..errors import SerializationError
from ..faults.io import (
    io_fsync,
    io_read_bytes,
    io_read_text,
    io_replace,
    io_write,
    retry_io,
)

#: Marker key used to round-trip non-finite floats through JSON.
NONFINITE_KEY = "__nonfinite__"

#: Marker key carrying the originating dataclass name, so serialized
#: results stay self-describing without a pickle-style type registry.
TYPE_KEY = "__type__"


def _encode_float(value: float) -> Union[float, Dict[str, str]]:
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return {NONFINITE_KEY: "nan"}
    return {NONFINITE_KEY: "inf" if value > 0 else "-inf"}


def to_jsonable(obj: Any) -> Any:
    """Convert a result object into JSON-encodable python values.

    Handles dataclasses (tagged with :data:`TYPE_KEY`), dicts, lists,
    tuples, numpy arrays/scalars and plain scalars.  Raises
    :class:`~repro.errors.SerializationError` for anything else, so a
    new result field that cannot be persisted fails loudly.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _encode_float(obj)
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and bool(np.isfinite(obj).all()):
            return obj.tolist()
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded: Dict[str, Any] = {TYPE_KEY: type(obj).__name__}
        for field in dataclasses.fields(obj):
            encoded[field.name] = to_jsonable(getattr(obj, field.name))
        return encoded
    if isinstance(obj, dict):
        out: Dict[str, Any] = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                key = str(key)
            out[key] = to_jsonable(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise SerializationError(
        f"cannot serialize {type(obj).__name__!r} "
        f"(value {obj!r}); add a handler in runtime.serialize"
    )


def canonical_json(obj: Any) -> str:
    """The canonical (sorted-key, fixed-separator) JSON text for ``obj``.

    Bit-identical for equal inputs -- the backbone of the determinism
    tests and of content-addressed cache keys.
    """
    return json.dumps(
        to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def write_json_atomic(
    path: Union[str, Path], payload: Any, fsync: bool = True
) -> Path:
    """Write ``payload`` as indented JSON via a same-directory temp file.

    The fsync-then-rename keeps readers (and the result cache) from
    ever observing a half-written file, and -- because the data hits
    the platters before the rename -- a power cut leaves either the old
    file or the complete new one, never a truncated hybrid.

    When ``fsync=True`` the parent directory is fsynced after the
    rename as well: the rename itself is a directory mutation, and
    without the directory fsync a power cut can durably keep the data
    blocks yet lose the name pointing at them.

    ``fsync=False`` keeps the rename atomicity (readers still never see
    a partial file) but lets the page cache decide when bytes reach the
    platters -- a power cut may then roll the file back to its previous
    content, and the directory entry is likewise left to the cache.
    Only loss-tolerant writers (the ``_obs`` telemetry pipeline, fleet
    heartbeats) opt into this.

    Transient write/fsync errors (EIO) are retried with bounded
    backoff; each attempt starts from a fresh temp file, so a torn
    first attempt can never leak into the final rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)

    def attempt() -> None:
        handle, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                io_write(tmp, text + "\n")
                tmp.flush()
                if fsync:
                    io_fsync(tmp.fileno(), tmp_name)
            io_replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        if fsync:
            fsync_dir(path.parent)

    retry_io(attempt, f"write_json_atomic:{path.name}")
    return path


def fsync_dir(directory: Path) -> None:
    """Make a directory mutation (a rename) durable."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        io_fsync(fd, directory)
    finally:
        os.close(fd)


def write_json_atomic_verified(path: Union[str, Path], payload: Any) -> Path:
    """:func:`write_json_atomic`, then read the file back and compare.

    Used for terminal result files, where a silently dropped rename
    would leave a stale (or absent) result that nothing downstream
    could distinguish from a real one.  A missing or mismatching
    read-back is converted to ``EIO`` so the outer retry rewrites the
    file; if the budget runs out the error propagates loudly.
    """
    path = Path(path)
    expected = json.dumps(
        to_jsonable(payload), indent=2, sort_keys=True, allow_nan=False
    )
    # Compared as bytes: a flipped bit need not leave valid UTF-8.
    expected_bytes = (expected + "\n").encode("utf-8")

    def attempt() -> None:
        write_json_atomic(path, payload, fsync=True)
        try:
            found = io_read_bytes(path)
        except OSError as exc:
            raise OSError(
                errno.EIO, f"result read-back failed: {exc}", str(path)
            )
        if found != expected_bytes:
            raise OSError(
                errno.EIO, "result read-back mismatch", str(path)
            )

    retry_io(attempt, f"write_json_verified:{path.name}")
    return path


def read_json(path: Union[str, Path]) -> Any:
    """Load a JSON file written by :func:`write_json_atomic`."""
    return json.loads(io_read_text(path))
