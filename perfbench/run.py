#!/usr/bin/env python3
"""Building-epoch to dashboard-byte benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pilot|dashboard|drilldown \\
        [--seed 2021] [--seconds 10] [--trace 0|1]

The program under test is the checkout's ``src/repro``; the benchmark
only generates its inputs from ``--seed`` and drives the public entry
points of ``campaign``, ``store`` and ``serve`` from its own processes.
See ``perfbench/WORKLOADS.md`` for the workloads and every metric.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload once untraced and once with the public
calls wrapped in spans, and reports the per-layer metrics, the layer
self-time rows (which with ``other`` add up to the traced wall) and the
tracing overhead (the system under test's CPU time, traced over
untraced).  The spans are written as one Chrome trace under
``.perfbench-work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that
cannot measure (no sources, a child that dies) prints no result and
exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    ROOT,
    WORK_DIR,
    BenchError,
    Children,
    import_repro_here,
    settle,
)

#: Layer self-time rows of a traced run, reported as ``layer.<row>_s``.
LAYER_ROWS = (
    "import", "link", "campaign", "runtime", "faults", "store", "query",
    "shm", "serve", "transport", "queue", "os", "other",
)


def _write_trace(workload: str, seed: int, groups: List[Tuple[str, List[list]]],
                 extra_events: List[dict]) -> Path:
    from spans import chrome_events

    events: List[dict] = []
    for pid, (label, spans) in enumerate(groups, start=1):
        events.extend(chrome_events(spans, pid, label))
    events.extend(extra_events)
    out = WORK_DIR / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return out


def run_pilot(seed: int, traced: bool, work: Path, children: Children) -> Dict[str, Any]:
    import pilot
    from repro.campaign.config import CampaignConfig

    epochs = CampaignConfig().epochs
    reference = pilot.reference(seed)
    if traced:
        plain = pilot.run_pass(seed, work / "untraced", children, False, False)
        done = pilot.run_pass(seed, work / "traced", children, True, False)
        metrics, rows = pilot.per_layer(done, plain)
        passes = [plain, done]
        trace = _write_trace("pilot", seed, done.spans, [])
    else:
        done = pilot.run_pass(seed, work, children, False, True)
        metrics, rows, trace = pilot.end_to_end(done), None, None
        passes = [done]
    correct, failed, problems = True, 0, []
    for one in passes:
        ok, bad, notes = pilot.check(reference, one, epochs)
        correct, failed, problems = correct and ok, failed + bad, problems + notes
    return dict(metrics=metrics, rows=rows, correct=correct,
                attempted=epochs * len(passes), failed=failed,
                problems=problems, trace=trace)


def run_reads(workload: str, seed: int, seconds: float, traced: bool,
              work: Path, children: Children) -> Dict[str, Any]:
    import reads
    from repro.store import TelemetryStore

    store = work / "store"
    settle()
    built = reads.build_store(store, seed)
    telemetry = TelemetryStore(store, create=False)
    compact: Tuple[List[float], List[float]] = ([], [])
    settle()
    for _ in range(reads.COMPACTIONS):
        began, cpu = time.monotonic(), time.process_time()
        telemetry.compact()
        compact[0].append(time.monotonic() - began)
        compact[1].append(time.process_time() - cpu)
    warm, timed = reads.schedules(workload, seed, seconds)
    rate = reads.RATES[workload]
    settle()
    launches: List[reads.Launch] = []
    timed_reports, warm_reports = [], []

    def serve(traced_gateway: bool, name: str):
        """Launch a gateway and send it the warm-up requests."""
        launch = reads.Launch(children, store, traced_gateway, warm[0])
        launches.append(launch)
        warm_reports.append(reads.drive(launch.port, warm, 0.0, work, f"{name}-warm"))
        return launch

    if not traced:
        for _ in range(reads.LAUNCHES - 1):
            launches.append(reads.Launch(children, store, False, warm[0]))
            launches[-1].child.kill()
        gateway = serve(False, "timed")
        cpu0 = gateway.cpu_s()
        report = reads.drive(gateway.port, timed, rate, work, "timed")
        cpu1 = gateway.cpu_s()
        reads.stop_gateway(gateway.child)
        timed_reports.append(report)
        metrics = reads.end_to_end(built, compact, launches, report, cpu1 - cpu0)
        rows, trace = None, None
    else:
        gateway = serve(False, "untraced")
        cpu0 = gateway.cpu_s()
        plain = reads.drive(gateway.port, timed, rate, work, "untraced")
        plain_cpu = gateway.cpu_s() - cpu0
        reads.stop_gateway(gateway.child)
        timed_reports.append(plain)
        wall_view = reads.wall(built, compact, launches, plain)

        gateway = serve(True, "traced")
        child = gateway.child
        child.send(reset=True)
        child.expect("reset")
        child.send(cache=True)
        before = child.expect("cache")["cache"]
        cpu0 = gateway.cpu_s()
        report = reads.drive(gateway.port, timed, rate, work, "traced")
        traced_cpu = gateway.cpu_s() - cpu0
        child.send(cache=True)
        after = child.expect("cache")["cache"]
        child.send(spans=True)
        spans = child.expect("spans")["spans"]
        reads.stop_gateway(child)
        timed_reports.append(report)
        metrics, rows = reads.per_layer(
            report, spans, (before, after),
            [launch.import_s for launch in launches], (plain_cpu, traced_cpu),
            wall_view,
        )
        client = [{
            "name": target.split("?")[0], "cat": "client", "ph": "X",
            "ts": sent * 1e6, "dur": (done - sent) * 1e6, "pid": 0, "tid": 0,
            "args": {"target": target, "status": status, "due_us": due * 1e6},
        } for target, (due, sent, done, status, *_r) in zip(timed, report["results"])]
        trace = _write_trace(workload, seed, [("gateway", spans)], client)

    expected = reads.expected_bodies(store, warm + timed)
    attempted = failed = wrong = 0
    for one in timed_reports:
        bad, mismatched = reads.failures(one, expected)
        attempted += len(one["results"])
        failed += bad
        wrong += mismatched
    problems = []
    for one in warm_reports:
        bad, mismatched = reads.failures(one, expected)
        if bad:
            problems.append(f"{bad} warm-up request(s) failed")
        wrong += mismatched
    for target, status, body in (launch.first for launch in launches):
        if status != 200 or hashlib.sha256(body).hexdigest() != expected[target]:
            problems.append(f"first response to {target} was wrong")
            wrong += 1
    if failed:
        problems.append(f"{failed} of {attempted} timed request(s) failed")
    return dict(metrics=metrics, rows=rows, correct=wrong == 0 and not problems,
                attempted=attempted, failed=failed, problems=problems, trace=trace)


def collect(spec: Dict[str, Any], outcome: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The metrics object: exactly the declared names, each with its unit."""
    declared = spec["per_layer" if traced else "end_to_end"]
    values = dict(outcome["metrics"])
    if traced:
        unknown = set(outcome["rows"]) - set(LAYER_ROWS)
        if unknown:
            raise BenchError(f"undeclared layer rows {sorted(unknown)}")
        for row in LAYER_ROWS:
            values[f"layer.{row}_s"] = outcome["rows"].get(row, 0.0)
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    if unknown:
        raise BenchError(f"undeclared metrics {sorted(unknown)}")
    if not traced and set(values) != names:
        raise BenchError(f"missing metrics {sorted(names - set(values))}")
    # A traced run reports a layer that does no work on this workload
    # (the campaign layers while serving, say) as zero.
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pilot", "dashboard", "drilldown"))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_repro_here()
        WORK_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(
            prefix=f"{args.workload}-{args.seed}-", dir=str(WORK_DIR)))
        children = Children(work)
        try:
            if args.workload == "pilot":
                outcome = run_pilot(args.seed, traced, work, children)
            else:
                outcome = run_reads(args.workload, args.seed, args.seconds,
                                    traced, work, children)
        finally:
            children.kill_all()
            shutil.rmtree(work, ignore_errors=True)
        metrics = collect(spec, outcome, traced)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for note in outcome["problems"]:
        print(f"perfbench: {note}", file=sys.stderr)
    if outcome["rows"] is not None:
        wall = metrics["trace.wall_s"]["value"]
        print(f"layer self time, {args.workload} seed {args.seed} "
              f"(traced wall {wall:.3f} s):")
        for row in LAYER_ROWS:
            value = metrics[f"layer.{row}_s"]["value"]
            print(f"  {row:<10} {value:10.4f} s {100.0 * value / wall:6.1f} %")
        print(f"trace: {os.path.relpath(outcome['trace'], ROOT)}")
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
