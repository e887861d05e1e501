"""The read workloads: ``dashboard`` and ``drilldown`` against one gateway.

Both serve the same seeded read store: 2 buildings with the pilot's
export shape (per building, 2 structure channels at 1 sample/h plus
8 capsules x 3 channels at 1 read per epoch: 26 series) over 74 weekly
epochs, written through ``TelemetryStore.writer()`` with one durable
flush per building-epoch -- 53,280 raw rows in 3,848 blocks, the block
layout campaign exports produce -- then compacted.

The gateway runs in its own process (``AsyncGateway`` + ``run_gateway``
at default settings, observability off) and is launched three times:
set-up is launch to port bound on the wall clock, resume is the
gateway's CPU time from launch to its first answered request, each
reported as the median of the three.  The third launch
serves the load: a warm-up, then an open loop from one separate
process over two keep-alive connections for ``--seconds``.

* ``dashboard``: 300 req/s, zipf(1.4) over 108 hot rollup panels -- per
  series, daily over the whole pilot and hourly over the latest 4 weeks;
  per building, the daily strain mean grouped by node and the hourly
  acceleration max.  The working set is far below the 512-entry cache.
* ``drilldown``: 60 req/s of 60 % raw ``/series`` windows of 1-4 weeks,
  20 % ``/health`` and 20 % raw ``/aggregate`` (max) over random
  windows.  Raw reads are never cached and every window is unique.

Every distinct request's body is compared, outside the timed window,
against ``EndpointCore.handle`` run in-process over the same store.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple
from urllib.parse import parse_qsl, urlencode, urlsplit

from common import (
    BENCH_DIR,
    BenchError,
    Children,
    child_env,
    median,
    percentile,
    tail_rung,
)
from spans import LAYER, NAME, PARENT, SID, T0, T1, with_self_times

BUILDINGS = ("tower-a", "tower-b")
WALL = "pilot"
EPOCHS = 74
HOURS_PER_EPOCH = 168
CAPSULES = 8
STRUCTURE_METRICS = ("acceleration", "stress_mpa")
CAPSULE_METRICS = ("humidity", "strain", "temperature")

#: Open-loop rates: about a third of each mix's saturation on a 2-core box.
RATES = {"dashboard": 300.0, "drilldown": 60.0}
ZIPF_EXPONENT = 1.4
CONNECTIONS = 2

#: Launches per run behind the set-up and resume medians.
LAUNCHES = 3
COMPACTIONS = 5

#: Drill-down requests sent before timing, to start the worker pool.
DRILLDOWN_WARMUP = 20

END_HOUR = EPOCHS * HOURS_PER_EPOCH


# ----------------------------------------------------------------------
# The read store
# ----------------------------------------------------------------------


def _series() -> List[Tuple[int, str]]:
    return [(0, metric) for metric in STRUCTURE_METRICS] + [
        (node, metric)
        for node in range(1, CAPSULES + 1)
        for metric in CAPSULE_METRICS
    ]


def _epoch_batches(seed: int) -> List[Tuple[str, List[Tuple[Any, Any, Any]]]]:
    """Every building-epoch's samples, generated before any timing."""
    import numpy as np
    from repro.store import SeriesKey

    batches = []
    rngs = {b: np.random.default_rng([seed, i]) for i, b in enumerate(BUILDINGS)}
    drift = {b: rngs[b].uniform(0.0, 1.2, CAPSULES) for b in BUILDINGS}
    for epoch in range(EPOCHS):
        hours = epoch * HOURS_PER_EPOCH + np.arange(HOURS_PER_EPOCH, dtype=float)
        diurnal = 0.5 * (1.0 + np.sin(2.0 * np.pi * hours / 24.0))
        visit = np.array([float(epoch * HOURS_PER_EPOCH)])
        for building in BUILDINGS:
            rng = rngs[building]
            rows = [
                (SeriesKey(building, WALL, 0, "acceleration"), hours,
                 0.012 * (0.3 + diurnal) * rng.normal(size=hours.size)),
                (SeriesKey(building, WALL, 0, "stress_mpa"), hours,
                 -60.0 + 10.0 * diurnal + rng.normal(0.0, 0.8, hours.size)),
            ]
            for node in range(1, CAPSULES + 1):
                day = visit[0] / 24.0
                values = {
                    "humidity": 70.0 + rng.normal(0.0, 5.0),
                    "strain": 100.0 * node + drift[building][node - 1] * day
                    + rng.normal(0.0, 2.0),
                    "temperature": 22.0 + 6.0 * np.sin(2.0 * np.pi * epoch / 52.0)
                    + rng.normal(0.0, 0.5),
                }
                for metric in CAPSULE_METRICS:
                    rows.append((SeriesKey(building, WALL, node, metric), visit,
                                 np.array([values[metric]])))
            batches.append((building, rows))
    return batches


def build_store(root: Path, seed: int) -> Tuple[List[float], List[float]]:
    """Write the read store; returns each building-epoch's (wall, CPU) times."""
    from repro.store import TelemetryStore

    batches = _epoch_batches(seed)
    store = TelemetryStore(root)
    took, cpu = [], []
    for _building, rows in batches:
        began, cpu0 = time.monotonic(), time.process_time()
        with store.writer() as writer:
            for key, t, v in rows:
                writer.add(key, t, v)
        took.append(time.monotonic() - began)
        cpu.append(time.process_time() - cpu0)
    return took, cpu


# ----------------------------------------------------------------------
# Request mixes
# ----------------------------------------------------------------------


def _target(path: str, **params: Any) -> str:
    return f"{path}?{urlencode(params)}"


def dashboard_targets() -> List[str]:
    """The hot panels: 2 buildings x (26 series x 2 + 2 aggregates)."""
    targets = []
    for building in BUILDINGS:
        for node, metric in _series():
            base = dict(building=building, wall=WALL, node=node, metric=metric)
            targets.append(_target("/series", **base, resolution="daily"))
            targets.append(_target(
                "/series", **base, resolution="hourly",
                t0=END_HOUR - 4 * HOURS_PER_EPOCH, t1=END_HOUR,
            ))
        targets.append(_target(
            "/aggregate", metric="strain", agg="mean", building=building,
            resolution="daily", group_by="node",
        ))
        targets.append(_target(
            "/aggregate", metric="acceleration", agg="max", building=building,
            resolution="hourly",
        ))
    return targets


def _window(rng: Any, weeks_low: int, weeks_high: int) -> Tuple[int, int]:
    span = int(rng.integers(weeks_low, weeks_high + 1)) * HOURS_PER_EPOCH
    t0 = int(rng.integers(0, END_HOUR - span))
    return t0, t0 + span


def _drilldown_request(rng: Any, kind: str) -> str:
    building = BUILDINGS[int(rng.integers(len(BUILDINGS)))]
    if kind == "series":
        node, metric = _series()[int(rng.integers(len(_series())))]
        t0, t1 = _window(rng, 1, 4)
        return _target("/series", building=building, wall=WALL, node=node,
                       metric=metric, t0=t0, t1=t1)
    if kind == "health":
        t0, t1 = _window(rng, 4, 26)
        return _target("/health", building=building, t0=t0, t1=t1)
    metric = (STRUCTURE_METRICS + CAPSULE_METRICS)[int(rng.integers(5))]
    t0, t1 = _window(rng, 1, 8)
    return _target("/aggregate", metric=metric, agg="max", building=building,
                   t0=t0, t1=t1)


def _drilldown(rng: Any, count: int) -> List[str]:
    """``count`` requests, exactly 3:1:1 series/health/aggregate per five.

    Fixing the mix per block of five (shuffled within the block) keeps
    the seed from changing how much of each kind of work a run does.
    """
    kinds: List[str] = []
    while len(kinds) < count:
        block = ["series", "series", "series", "health", "aggregate"]
        rng.shuffle(block)
        kinds.extend(block)
    return [_drilldown_request(rng, kind) for kind in kinds[:count]]


def schedules(workload: str, seed: int, seconds: float) -> Tuple[List[str], List[str]]:
    """(warm-up targets, timed targets) for one run, from the seed."""
    import numpy as np

    count = int(round(RATES[workload] * seconds))
    if workload == "dashboard":
        rng = np.random.default_rng([seed, 101])
        targets = dashboard_targets()
        ranked = [targets[i] for i in rng.permutation(len(targets))]
        weights = np.arange(1, len(ranked) + 1, dtype=float) ** -ZIPF_EXPONENT
        picks = rng.choice(len(ranked), size=count, p=weights / weights.sum())
        # Warm-up visits every panel once: the cache is filled before
        # timing, as it is on a dashboard that has been up a while.
        return ranked, [ranked[i] for i in picks]
    return (
        _drilldown(np.random.default_rng([seed, 202]), DRILLDOWN_WARMUP),
        _drilldown(np.random.default_rng([seed, 303]), count),
    )


# ----------------------------------------------------------------------
# Driving the gateway
# ----------------------------------------------------------------------


def _first_response(port: int, target: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Launch:
    """One gateway launch, timed to its bound port and first answer."""

    def __init__(self, children: Children, store: Path, traced: bool, probe: str):
        self.child = children.launch(
            "sut_gateway.py", [str(store), "1" if traced else "0"])
        self.import_s = self.child.expect("imported")["import_s"]
        bound = self.child.expect("bound")
        self.port = bound["bound"]
        self.setup_s = bound["t"] - self.child.launched
        status, body = _first_response(self.port, probe)
        self.resume_s = time.monotonic() - self.child.launched
        self.resume_cpu_s = self.cpu_s()
        self.first = (probe, status, body)

    def cpu_s(self) -> float:
        """The gateway's CPU clock, asked for while it is idle."""
        self.child.send(cpu=True)
        return self.child.expect("cpu")["cpu"]


def stop_gateway(child) -> None:
    child.send(stop=True)
    if child.reap() != 0:
        raise BenchError(f"gateway exited badly: {child.log_tail()}")


def drive(port: int, targets: Sequence[str], rate: float, work: Path, name: str) -> Dict[str, Any]:
    """Run the load generator over ``targets`` at ``rate`` (0: back to back)."""
    schedule = [[i / rate if rate else 0.0, t] for i, t in enumerate(targets)]
    schedule_path = work / f"{name}-schedule.json"
    results_path = work / f"{name}-results.json"
    schedule_path.write_text(json.dumps(schedule))
    timeout = 60.0 + (len(targets) / rate if rate else 0.0)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "loadgen.py"), str(port),
         str(schedule_path), str(results_path), str(CONNECTIONS)],
        env=child_env(), timeout=timeout, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    if done.returncode != 0:
        raise BenchError(f"load generator failed: {done.stderr.decode()[-800:]}")
    report = json.loads(results_path.read_text())
    report["targets"] = list(targets)
    return report


def expected_bodies(store: Path, targets: Sequence[str]) -> Dict[str, str]:
    """sha256 of each distinct target's body from an in-process core."""
    from repro.serve import EndpointCore
    from repro.store import TelemetryStore

    core = EndpointCore(TelemetryStore(store, create=False))
    expected = {}
    for target in sorted(set(targets)):
        parts = urlsplit(target)
        response = core.handle("GET", parts.path, dict(parse_qsl(parts.query)))
        if response.status != 200:
            raise BenchError(f"in-process core answered {response.status} to {target}")
        expected[target] = hashlib.sha256(response.body).hexdigest()
    return expected


def failures(report: Dict[str, Any], expected: Dict[str, str]) -> Tuple[int, int]:
    """(failed requests, wrong bodies) of one load-generator report."""
    failed = wrong = 0
    for target, record in zip(report["targets"], report["results"]):
        _due, _sent, _done, status, _size, sha, _late, error = record
        if error is not None or status != 200:
            failed += 1
        elif sha != expected[target]:
            failed += 1
            wrong += 1
    return failed, wrong


def latencies(report: Dict[str, Any]) -> List[float]:
    return [done - due for due, _sent, done, *_rest in report["results"]]


def _layer_table(report: Dict[str, Any], spans: List[list]) -> Tuple[Dict[str, float], float]:
    """Layer self-time rows of one traced window, and its wall."""
    records = report["results"]
    wall = sum(done - due for due, _s, done, *_r in records)
    handle = sum(s[T1] - s[T0] for s in spans if s[PARENT] == 0)
    rows = {
        "queue": sum(sent - due for due, sent, *_r in records),
        "transport": sum(done - sent for _d, sent, done, *_r in records) - handle,
    }
    for span, self_s in with_self_times(spans):
        rows[span[LAYER]] = rows.get(span[LAYER], 0.0) + self_s
    rows["other"] = wall - sum(rows.values())
    return rows, wall


def per_layer(
    report: Dict[str, Any], spans: List[list], cache: Tuple[dict, dict],
    import_s: List[float], cpu_s: Tuple[float, float], wall_view: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(named per-layer metrics, layer rows) of one traced window.

    ``cpu_s`` is the gateway's CPU time over the (untraced, traced)
    windows, which ran the same schedule.
    """
    n = len(report["results"])
    rows, wall = _layer_table(report, spans)
    roots = {s[SID] for s in spans if s[PARENT] == 0}

    def durations(name: str, direct: bool = False) -> List[float]:
        return [s[T1] - s[T0] for s in spans
                if s[NAME] == name and (not direct or s[PARENT] in roots)]

    def p50_ms(values: List[float]) -> float:
        return 1000.0 * median(values) if values else 0.0

    def per_query_ms(name: str) -> float:
        return 1000.0 * sum(durations(name)) / n

    before, after = cache
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    service = sum(done - sent for _d, sent, done, *_r in report["results"])
    metrics = {
        "query.series_ms_p50": p50_ms(durations("QueryEngine.series", direct=True)),
        "query.aggregate_ms_p50": p50_ms(durations("QueryEngine.aggregate")),
        "query.health_ms_p50": p50_ms(durations("QueryEngine.degradation_report")),
        "store.segment_reads_per_query": len(durations("SegmentDir.read")) / n,
        "store.keys_ms_per_query": per_query_ms("TelemetryStore.keys"),
        "store.generation_reads_per_query": len(durations("TelemetryStore.generation")) / n,
        "serve.handle_ms_p50": p50_ms(durations("EndpointCore.handle")),
        "serve.encode_ms_per_query": per_query_ms("encode_json"),
        "serve.transport_ms_per_query": 1000.0 * (
            service - sum(durations("EndpointCore.handle"))
        ) / n,
        "serve.cache_lookups": float(lookups),
        "serve.cache_hits": float(hits),
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache_evictions": float(after["evictions"] - before["evictions"]),
        "serve.response_kb_per_query": sum(r[4] for r in report["results"]) / 1024.0 / n,
        "serve.requests": float(n),
        "generator.late_ms_p99": 1000.0 * percentile([r[6] for r in report["results"]], 99.0),
        "import_s": median(import_s),
        **wall_view,
        "trace.attributed_pct": 100.0 * (1.0 - rows["other"] / wall),
        "trace.overhead_pct": 100.0 * (cpu_s[1] / cpu_s[0] - 1.0),
        "trace.wall_s": wall,
    }
    return metrics, rows


def end_to_end(
    built: Tuple[List[float], List[float]], compact: Tuple[List[float], List[float]],
    launches: List[Launch], report: Dict[str, Any], cpu_s: float,
) -> Dict[str, float]:
    epoch_cpu = built[1]
    completed = sum(1 for r in report["results"] if r[3] != 0)
    return {
        "setup_s": median([launch.setup_s for launch in launches]),
        "resume_cpu_s": median([launch.resume_cpu_s for launch in launches]),
        "cpu_ms_per_op": 1000.0 * cpu_s / max(completed, 1),
        "epoch_cpu_ms_mean": 1000.0 * sum(epoch_cpu) / len(epoch_cpu),
        "epoch_cpu_ms_tail": 1000.0 * percentile(epoch_cpu, tail_rung(len(epoch_cpu))),
        "compact_cpu_s": median(compact[1]),
    }


def wall(
    built: Tuple[List[float], List[float]], compact: Tuple[List[float], List[float]],
    launches: List[Launch], report: Dict[str, Any],
) -> Dict[str, float]:
    """The wall-clock view of an untraced window (reported, not gated)."""
    lat = latencies(report)
    return {
        "wall.op_ms_p50": 1000.0 * median(lat),
        "wall.op_ms_tail": 1000.0 * percentile(lat, tail_rung(len(lat))),
        "wall.epochs_per_s": len(built[0]) / sum(built[0]),
        "wall.resume_s": median([launch.resume_s for launch in launches]),
        "wall.compact_s": median(compact[0]),
    }
