"""Shared plumbing for the benchmark's parent and child processes.

Every process the benchmark launches speaks one line-oriented JSON
protocol: the child writes one object per line on stdout, the parent
answers with one object per line on stdin.  All timestamps are
``time.monotonic()``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the processes of one machine.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for stores, state dirs and traces (ignored by git).
WORK_DIR = ROOT / ".perfbench-work"

#: Longest a child may take to answer one protocol step.
STEP_TIMEOUT_S = 120.0

#: Percentile ladder for the tail metric: the highest rung that still
#: has at least ten samples beyond it is reported.
TAIL_LADDER = (50.0, 75.0, 85.0, 90.0, 95.0, 98.0, 99.0, 99.9)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no JSON line is printed)."""


def settle() -> None:
    """Flush dirty pages before a measured phase.

    Writes from earlier phases (or an earlier run) are otherwise written
    back by kernel threads while the next phase is being measured,
    competing with it for the same two CPUs.
    """
    os.sync()


def require_source() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")


def import_repro_here() -> None:
    """Put the checkout's sources first on this process's import path."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_rung(count: int) -> float:
    """The highest :data:`TAIL_LADDER` rung with >= 10 samples beyond."""
    best = TAIL_LADDER[0]
    for rung in TAIL_LADDER:
        if count * (100.0 - rung) / 100.0 >= 10.0:
            best = rung
    return best


# ----------------------------------------------------------------------
# /proc readings of another process
# ----------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text.rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_wchar(pid: int) -> int:
    """Bytes ``pid`` has passed to write() calls (``/proc/<pid>/io``)."""
    for line in Path(f"/proc/{pid}/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/io has no wchar line")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Child:
    """One launched benchmark child speaking the JSON-lines protocol."""

    def __init__(self, script: str, args: Sequence[str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self._buf = bytearray()
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(ROOT),
            env=child_env(),
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def recv(self, timeout: float = STEP_TIMEOUT_S) -> Dict[str, Any]:
        """The child's next message; raises if it died or went silent."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{self.describe()} sent nothing for {timeout} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.proc.wait(timeout=10)
                raise BenchError(
                    f"{self.describe()} exited early: {self.log_tail()}"
                )
            self._buf += chunk
        cut = self._buf.index(b"\n") + 1
        line = bytes(self._buf[:cut])
        del self._buf[:cut]
        msg = json.loads(line)
        # The child's harness bytes through this message, for wchar.
        msg["harness_bytes"] = msg.pop("sent", 0) + len(line)
        return msg

    def expect(self, key: str, timeout: float = STEP_TIMEOUT_S) -> Dict[str, Any]:
        msg = self.recv(timeout)
        if key not in msg:
            raise BenchError(f"{self.describe()} sent {msg!r}, expected {key!r}")
        return msg

    def send(self, **msg: Any) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.reap()

    def reap(self, timeout: float = 30.0) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._log.close()
        return code

    def describe(self) -> str:
        return f"{Path(self.proc.args[1]).name} (pid {self.pid})"

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


class Children:
    """Every child of one run, so none outlives the run."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self._all: List[Child] = []

    def launch(self, script: str, args: Sequence[str]) -> Child:
        child = Child(script, args, self.log_dir / f"{Path(script).stem}.log")
        self._all.append(child)
        return child

    def kill_all(self) -> None:
        for child in self._all:
            child.kill()


# ----------------------------------------------------------------------
# The child side of the protocol
# ----------------------------------------------------------------------


class Channel:
    """Child-side JSON lines over the inherited stdin/stdout.

    Each message carries ``sent``, the bytes the harness wrote before
    it, so the parent can subtract the harness's own writes from the
    child's ``wchar``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._out = sys.stdout.fileno()
        self._in = sys.stdin.buffer
        self.sent_bytes = 0

    def send(self, **msg: Any) -> None:
        with self._lock:
            data = (json.dumps({**msg, "sent": self.sent_bytes}) + "\n").encode()
            self.sent_bytes += len(data)
            view = memoryview(data)
            while view:
                view = view[os.write(self._out, view):]

    def recv(self) -> Optional[Dict[str, Any]]:
        line = self._in.readline()
        if not line:
            return None
        return json.loads(line)

