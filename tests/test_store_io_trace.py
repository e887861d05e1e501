"""The storage I/O trace of a small campaign with a store, pinned.

The seeded storage-fault injector (:mod:`repro.faults.io`) draws once
per shim call and fault kind, so the number and order of the program's
``io_write``, ``io_fsync``, ``io_replace`` and read calls decide where a
chaos drill's faults land.  This test installs a recording double as the
shim's injector, runs an 8-epoch campaign exporting to a store (seed
2021), compacts the store, and compares the sequence of (operation,
file) calls with the committed golden ``tests/io_trace.txt``.  It also
pins the compacted store's segment bytes: sha256 over every ``*.seg``
file in sorted relative-path order, each as ``relpath NUL bytes``.

Files are named relative to the run's temporary root.  A ``mkstemp``
name's random part reads ``<tmp>``, and a handle that carries only a
file descriptor reads ``<fd>``.  Byte counts are left out: epoch-log
records carry wall times, so their lengths vary by a byte.
``scripts/ci.sh`` runs this file again under two ``PYTHONHASHSEED``
values, so the order cannot depend on set or dict iteration.

A change to the durable write path updates the golden on purpose, as
it would a result hash::

    PYTHONPATH=src python tests/test_store_io_trace.py > tests/io_trace.txt
"""

import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from repro.campaign import CampaignConfig
from repro.campaign.driver import run_campaign
from repro.faults import io as io_module
from repro.store import TelemetryStore

GOLDEN = Path(__file__).with_name("io_trace.txt")

#: The compacted store's ``*.seg`` hash (see :func:`seg_hash`).
SEG_SHA256 = "2de378d4c868c57a26a6adc4ea862ebeda56d5a629bc688ff676c5ee7ae287e0"

#: ``write_json_atomic``'s temp files: ``<name><8 random chars>.tmp``.
_MKSTEMP = re.compile(r"^(.*\.json)[A-Za-z0-9_]{8}\.tmp$")


class _Recorder:
    """Records each shim call, then makes the real call."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.calls: List[Tuple[str, str]] = []

    def _name(self, path: Optional[object]) -> str:
        if path is None or isinstance(path, int):
            return "<fd>"
        return _MKSTEMP.sub(r"\1<tmp>.tmp", os.path.relpath(str(path), self.root))

    def write(self, handle, data) -> None:
        self.calls.append(("write", self._name(getattr(handle, "name", None))))
        handle.write(data)

    def fsync(self, fileno, path=None) -> None:
        self.calls.append(("fsync", self._name(path)))
        os.fsync(fileno)

    def replace(self, src, dst) -> None:
        self.calls.append(
            ("replace", f"{self._name(src)} -> {self._name(dst)}")
        )
        os.replace(src, dst)

    def read_bytes(self, path) -> bytes:
        self.calls.append(("read", self._name(path)))
        return Path(path).read_bytes()

    def read_handle(self, handle, n, path=None) -> bytes:
        self.calls.append(("read", self._name(path)))
        return handle.read(n)


def seg_hash(root: Path) -> str:
    """sha256 over every ``*.seg`` under ``root``: sorted relpath, NUL, bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.seg"), key=lambda p: str(p.relative_to(root))):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record_trace() -> Tuple[List[str], str]:
    """``operation<TAB>file`` per shim call of the campaign and compaction,
    and the compacted store's :func:`seg_hash`."""
    with tempfile.TemporaryDirectory(prefix="io-trace-") as scratch:
        root = Path(scratch)
        recorder = _Recorder(root)
        io_module._active = recorder
        try:
            run_campaign(
                CampaignConfig(seed=2021, epochs=8),
                state_dir=root / "state", store_dir=root / "store",
            )
            TelemetryStore(root / "store", create=False).compact()
        finally:
            io_module._active = None
        return (
            [f"{op}\t{name}" for op, name in recorder.calls],
            seg_hash(root / "store"),
        )


@pytest.fixture(scope="module")
def recorded() -> Tuple[List[str], str]:
    return record_trace()


def test_segment_bytes_match_the_pin(recorded):
    assert recorded[1] == SEG_SHA256


def test_trace_matches_the_golden(recorded):
    trace = recorded[0]
    golden = GOLDEN.read_text().splitlines()
    for index, (got, want) in enumerate(zip(trace, golden)):
        assert got == want, (
            f"shim call {index} differs: {got!r}, golden {want!r}"
        )
    longer = trace if len(trace) > len(golden) else golden
    assert len(trace) == len(golden), (
        f"{len(trace)} shim calls, golden {len(golden)}; the first call "
        f"only one has: {longer[min(len(trace), len(golden))]!r}"
    )


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in record_trace()[0]))
