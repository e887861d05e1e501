"""The ``pilot`` workload: one building's 17-month campaign, killed and resumed.

``CampaignConfig()`` defaults with the benchmark's seed: 74 weekly
epochs, 8 capsules, 168 h per epoch, default faults and storms, a
checkpoint after every epoch (keep 5) and a durable ``--store`` export.
The campaign runs in a child process that is SIGKILLed while it blocks
in ``epoch_hook`` at the start of epoch 56; a fresh child resumes it and
finishes, and the parent then compacts the store.

Set-up and resume are each measured on three launches and reported as
medians: two probe children that are killed at their first epoch hook,
and the child that does the work.  Compaction runs five times.

Each epoch is timed twice: on the wall clock, from its start to the next
epoch hook (the last ends when ``run`` returns), and on the campaign
process's CPU clock over the same interval.  The pilot's cost per epoch
is the whole CPU time of both campaign processes, read from
``/proc/<pid>/stat`` while each blocks in its last hook, over 74.

Correctness: the resumed run's ``result.json`` must hash to the same
sha256 as an uninterrupted in-memory run of the same seed, and the
compacted store must hold exactly that run's sample count.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    Children,
    median,
    percentile,
    proc_cpu_s,
    proc_wchar,
    settle,
    tail_rung,
)
from spans import (
    CAMPAIGN_CALLS, EXTRA, LAYER, NAME, T0, T1, TAG, Tracer, with_self_times,
)

#: The epoch whose hook the first campaign process is killed in.
KILL_EPOCH = 56

#: Launches per run behind the set-up and resume medians.
LAUNCHES = 3

#: Compactions per run behind the compaction median.
COMPACTIONS = 5


class PilotPass:
    """What one kill-and-resume pass of the pilot measured."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.resume_s: List[float] = []
        self.resume_cpu_s: List[float] = []
        self.import_s: List[float] = []
        self.epoch_s: Dict[int, float] = {}
        self.epoch_cpu_s: Dict[int, float] = {}
        self.cpu_s = 0.0
        self.life_cpu_s = 0.0
        self.write_bytes = 0
        self.compact_s: List[float] = []
        self.compact_cpu_s: List[float] = []
        self.raw_rows = 0
        self.wall_s = 0.0
        self.import_wall_s = 0.0
        self.spans: List[Tuple[str, List[list]]] = []
        self.state_dir: Optional[Path] = None


def _counters(child, msg: Dict[str, Any]) -> Tuple[float, int]:
    """CPU seconds and program bytes written, read while the child blocks."""
    return (
        proc_cpu_s(child.pid),
        proc_wchar(child.pid) - msg["harness_bytes"],
    )


def _probe(children: Children, args: List[str]) -> Tuple[float, float]:
    """Launch a campaign child, kill it at its first hook.

    Returns (wall seconds, CPU seconds) from launch to that hook.
    """
    child = children.launch("sut_campaign.py", args)
    child.expect("imported")
    hook = child.expect("hook")
    child.kill()
    return hook["t"] - child.launched, hook["cpu"]


def _epochs(child, until: Optional[int], done: "PilotPass") -> Dict[str, Any]:
    """Follow hooks after a ``go`` until epoch ``until`` or ``done``.

    Epoch ``e`` runs from its start message (or its hook, when it did
    not block) to the next hook, or to ``done`` for the last one.
    """
    start = child.expect("start")
    epoch, began, cpu = start["start"], start["t"], start["cpu"]
    while True:
        msg = child.recv()
        done.epoch_s[epoch] = msg["t"] - began
        done.epoch_cpu_s[epoch] = msg["cpu"] - cpu
        if "done" in msg:
            return msg
        epoch, began, cpu = msg["hook"], msg["t"], msg["cpu"]
        if epoch == until:
            return msg


def run_pass(
    seed: int, work: Path, children: Children, traced: bool, probes: bool
) -> PilotPass:
    """One pilot: launch, kill at :data:`KILL_EPOCH`, resume, compact."""
    from repro.store import TelemetryStore

    result = PilotPass()
    state, store = work / "state", work / "store"
    result.state_dir = state
    flag = "1" if traced else "0"
    settle()
    if probes:
        for index in range(LAUNCHES - 1):
            probe = work / f"probe{index}"
            took, _cpu = _probe(children, [
                "fresh", str(probe / "state"), str(probe / "store"),
                str(seed), "-1", "0",
            ])
            result.setup_s.append(took)

    main = children.launch("sut_campaign.py", [
        "fresh", str(state), str(store), str(seed), str(KILL_EPOCH), flag,
    ])
    imported = main.expect("imported")
    result.import_s.append(imported["import_s"])
    hook = main.expect("hook")
    result.setup_s.append(hook["t"] - main.launched)
    cpu0, wrote0 = _counters(main, hook)
    main.send(go=True)
    killed = _epochs(main, KILL_EPOCH, result)
    cpu1, wrote1 = _counters(main, killed)
    if traced:
        main.send(spans=True)
        result.spans.append(("campaign (killed)", main.expect("spans")["spans"]))
    main.kill()
    result.wall_s += killed["t"] - main.launched
    result.import_wall_s += imported["t"] - main.launched

    settle()
    resume_args = ["resume", str(state), str(store), str(seed), "-1"]
    if probes:
        for _ in range(LAUNCHES - 1):
            took, cpu = _probe(children, resume_args + ["0"])
            result.resume_s.append(took)
            result.resume_cpu_s.append(cpu)
    resumed = children.launch("sut_campaign.py", resume_args + [flag])
    imported = resumed.expect("imported")
    result.import_s.append(imported["import_s"])
    hook = resumed.expect("hook")
    if hook["hook"] != KILL_EPOCH:
        raise BenchError(f"resume started at epoch {hook['hook']}, not {KILL_EPOCH}")
    result.resume_s.append(hook["t"] - resumed.launched)
    cpu2, wrote2 = _counters(resumed, hook)
    result.resume_cpu_s.append(hook["cpu"])
    resumed.send(go=True)
    done = _epochs(resumed, None, result)
    cpu3, wrote3 = _counters(resumed, done)
    if traced:
        resumed.send(spans=True)
        result.spans.append(("campaign (resumed)", resumed.expect("spans")["spans"]))
    resumed.send(exit=True)
    if resumed.reap() != 0 or not done["done"]:
        raise BenchError(f"resumed campaign failed: {resumed.log_tail()}")
    result.wall_s += done["t"] - resumed.launched
    result.import_wall_s += imported["t"] - resumed.launched
    result.cpu_s = (cpu1 - cpu0) + (cpu3 - cpu2)
    result.life_cpu_s = cpu1 + cpu3
    result.write_bytes = (wrote1 - wrote0) + (wrote3 - wrote2)

    settle()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(CAMPAIGN_CALLS)
    try:
        telemetry = TelemetryStore(store, create=False)
        for _ in range(COMPACTIONS):
            began, cpu = time.monotonic(), time.process_time()
            summary = telemetry.compact()
            result.compact_s.append(time.monotonic() - began)
            result.compact_cpu_s.append(time.process_time() - cpu)
            result.raw_rows = summary["raw_rows"]
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.spans.append(("compaction", tracer.spans))
    result.wall_s += sum(result.compact_s)
    return result


def _result_sha(state_dir: Path) -> str:
    """sha256 of the canonical JSON of the result the campaign wrote."""
    payload = json.loads((state_dir / "result.json").read_text())
    canonical = json.dumps(
        payload["result"], sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference(seed: int) -> Tuple[str, int]:
    """(result sha256, sample count) of an uninterrupted in-memory run."""
    from repro.campaign.config import CampaignConfig
    from repro.campaign.driver import result_hash, run_campaign

    result = run_campaign(CampaignConfig(seed=seed)).result
    samples = 2 * int(result.hours.size) + sum(
        int(r.get("reports", 0)) for r in result.epoch_records
    )
    return result_hash(result), samples


def check(
    expected: Tuple[str, int], done: PilotPass, epochs: int
) -> Tuple[bool, int, List[str]]:
    """(correct, failed epochs, problems) of one pass against the reference.

    A wrong hash or row count fails every epoch; an epoch whose store
    export degraded fails that epoch.
    """
    from repro.campaign.log import EpochLog

    sha, samples = expected
    problems = []
    found = _result_sha(done.state_dir)
    if found != sha:
        problems.append(f"resumed sha256 {found[:12]} != in-memory {sha[:12]}")
    if done.raw_rows != samples:
        problems.append(f"compacted store holds {done.raw_rows} rows, run made {samples}")
    if len(done.epoch_s) != epochs:
        problems.append(f"timed {len(done.epoch_s)} epochs, expected {epochs}")
    if problems:
        return False, epochs, problems
    records = EpochLog(done.state_dir / "epochs.jsonl").records()
    degraded = sorted({r["epoch"] for r in records if r.get("export_degraded")})
    notes = [f"export degraded at epochs {degraded}"] if degraded else []
    return True, len(degraded), notes


def end_to_end(done: PilotPass) -> Dict[str, float]:
    epoch_cpu = list(done.epoch_cpu_s.values())
    return {
        "setup_s": median(done.setup_s),
        "resume_cpu_s": median(done.resume_cpu_s),
        "cpu_ms_per_op": 1000.0 * done.life_cpu_s / len(epoch_cpu),
        "epoch_cpu_ms_mean": 1000.0 * sum(epoch_cpu) / len(epoch_cpu),
        "epoch_cpu_ms_tail": 1000.0 * percentile(epoch_cpu, tail_rung(len(epoch_cpu))),
        "compact_cpu_s": median(done.compact_cpu_s),
    }


def wall(done: PilotPass) -> Dict[str, float]:
    """The wall-clock view of an untraced pass (reported, not gated)."""
    epoch_s = list(done.epoch_s.values())
    return {
        "wall.op_ms_p50": 1000.0 * median(epoch_s),
        "wall.op_ms_tail": 1000.0 * percentile(epoch_s, tail_rung(len(epoch_s))),
        "wall.epochs_per_s": len(epoch_s) / sum(epoch_s),
        "wall.resume_s": median(done.resume_s),
        "wall.compact_s": median(done.compact_s),
    }


def per_layer(done: PilotPass, untraced: PilotPass) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(named per-layer metrics, layer self-time rows) of a traced pass."""
    epochs = len(done.epoch_s)
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    rows: Dict[str, float] = {"import": done.import_wall_s}
    manifest_bytes = 0
    resume: Dict[str, float] = {}
    compact: List[float] = []
    for _label, spans in done.spans:
        for span, self_s in with_self_times(spans):
            name, duration = span[NAME], span[T1] - span[T0]
            rows[span[LAYER]] = rows.get(span[LAYER], 0.0) + self_s
            if name == "campaign.epoch":
                total["epoch_self"] = total.get("epoch_self", 0.0) + self_s
            if name == "compact_store":
                compact.append(duration)
            if span[TAG] is None:
                if name in ("CheckpointStore.load_latest", "EpochLog.recover",
                            "TelemetryStore.truncate_from"):
                    resume[name] = resume.get(name, 0.0) + duration
                continue
            total[name] = total.get(name, 0.0) + duration
            count[name] = count.get(name, 0) + 1
            extra = span[EXTRA]
            if name == "write_json_atomic" and extra and extra["file"] == "manifest.json":
                manifest_bytes += extra["bytes"]
    rows["other"] = done.wall_s - sum(rows.values())

    def per_epoch_ms(name: str) -> float:
        return 1000.0 * total.get(name, 0.0) / epochs

    checkpoint_kb = max(
        p.stat().st_size for p in (done.state_dir / "checkpoints").glob("epoch-*.json")
    ) / 1024.0
    metrics = {
        "campaign.epoch_ms_mean": per_epoch_ms("campaign.epoch"),
        "link.session_ms_per_epoch": per_epoch_ms("WallSession.run"),
        "campaign.checkpoint_ms_per_epoch": per_epoch_ms("CheckpointStore.save"),
        "campaign.checkpoint_kb_final": checkpoint_kb,
        "campaign.epochlog_ms_per_epoch": per_epoch_ms("EpochLog.append"),
        "campaign.self_ms_per_epoch": per_epoch_ms("epoch_self"),
        "campaign.resume_load_ms": 1000.0 * resume.get("CheckpointStore.load_latest", 0.0),
        "campaign.resume_log_ms": 1000.0 * resume.get("EpochLog.recover", 0.0),
        "store.truncate_ms": 1000.0 * resume.get("TelemetryStore.truncate_from", 0.0),
        "runtime.atomic_writes_per_epoch": count.get("write_json_atomic", 0) / epochs,
        "store.flush_ms_per_epoch": per_epoch_ms("StoreWriter.flush"),
        "store.writer_open_ms_per_epoch": (
            per_epoch_ms("PartitionLock.acquire") + per_epoch_ms("reclaim_tmp_files")
        ),
        "store.blocks_per_epoch": count.get("SegmentDir.append_block", 0) / epochs,
        "store.manifest_kb_per_epoch": manifest_bytes / 1024.0 / epochs,
        "store.compact_ms": 1000.0 * median(compact),
        "os.fsyncs_per_epoch": count.get("fsync", 0) / epochs,
        "os.fsync_ms_per_epoch": per_epoch_ms("fsync"),
        "os.write_kb_per_epoch": done.write_bytes / 1024.0 / epochs,
        "os.cpu_ms_per_epoch": 1000.0 * done.cpu_s / epochs,
        "import_s": median(done.import_s),
        **wall(untraced),
        "trace.attributed_pct": 100.0 * (1.0 - rows["other"] / done.wall_s),
        "trace.overhead_pct": 100.0 * (done.life_cpu_s / untraced.life_cpu_s - 1.0),
        "trace.wall_s": done.wall_s,
    }
    return metrics, rows
