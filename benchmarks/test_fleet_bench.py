"""Benchmark: fleet supervisor throughput and restart overhead (ISSUE 8).

Two fleets run over the same config:

* a **clean** run pins aggregate throughput -- ``buildings_per_min``
  and ``epochs_per_s`` across the worker pool;
* a **kill** run injects one worker SIGKILL mid-campaign, forcing a
  checkpoint resume through the supervisor's backoff path;
  ``restart_overhead_pct`` is the extra wall time that recovery cost
  relative to the clean run.

The two runs must produce byte-identical fleet results -- the bench
doubles as a determinism check (a restart that changed the sha256
would make the overhead number meaningless anyway).

Environment knobs (``scripts/ci.sh`` sets both):

* ``REPRO_BENCH_SMOKE=1`` -- shrink the fleet for CI; smoke
  readings are never gated or recorded by ``obs trend``.
* ``REPRO_BENCH_OUT=/path.json`` -- redirect the artifact so CI smoke
  runs do not overwrite the committed full-run numbers.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import report

from repro.campaign import CampaignConfig
from repro.faults import WorkerFault, WorkerFaultPlan
from repro.fleet import FleetConfig, building_names, run_fleet

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

BUILDINGS = 3 if SMOKE else 6
WORKERS = 3 if SMOKE else 4
EPOCHS = 2 if SMOKE else 6

BENCH_FILE = Path(
    os.environ.get(
        "REPRO_BENCH_OUT",
        Path(__file__).resolve().parents[1] / "BENCH_fleet.json",
    )
)


def _fleet_config():
    campaign = CampaignConfig(
        epochs=EPOCHS,
        nodes=2 if SMOKE else 4,
        hours_per_epoch=6 if SMOKE else 24,
        samples_per_hour=1,
        storm_period_epochs=max(2, EPOCHS // 2),
        storm_duration_epochs=1,
        checkpoint_interval=1,
        epoch_timeout_s=60.0,
    )
    return FleetConfig(
        buildings=building_names(BUILDINGS),
        campaign=campaign,
        seed=2021,
        workers=WORKERS,
        max_restarts=3,
        heartbeat_timeout_s=60.0,
        backoff_base_s=0.05,
        backoff_max_s=0.5,
    )


def _run_fleet(worker_faults=None):
    tmp = Path(tempfile.mkdtemp(prefix="fleet-bench-"))
    try:
        t0 = time.perf_counter()
        outcome = run_fleet(
            _fleet_config(),
            tmp / "fleet",
            store_dir=tmp / "store",
            worker_faults=worker_faults,
        )
        wall = time.perf_counter() - t0
        assert outcome.completed and not outcome.quarantined
        return {"wall_s": wall, "sha256": outcome.sha256,
                "totals": outcome.result["totals"]}
    finally:
        shutil.rmtree(tmp)


def test_fleet_bench(benchmark):
    _run_fleet()  # warm imports and fork machinery

    clean = benchmark.pedantic(_run_fleet, iterations=1, rounds=1)
    kill_plan = WorkerFaultPlan(faults=(
        WorkerFault(building="b002", epoch=EPOCHS // 2, action="kill"),
    ))
    killed = _run_fleet(worker_faults=kill_plan)

    assert killed["sha256"] == clean["sha256"], (
        "worker kill + checkpoint restart changed the fleet result bytes"
    )

    epochs_total = clean["totals"]["epochs_run"]
    buildings_per_min = BUILDINGS / (clean["wall_s"] / 60.0)
    epochs_per_s = epochs_total / clean["wall_s"]
    restart_overhead_s = killed["wall_s"] - clean["wall_s"]
    restart_overhead_pct = restart_overhead_s / clean["wall_s"] * 100.0

    payload = {
        "schema": "repro/bench-fleet/v1",
        "smoke": SMOKE,
        "workload": {
            "buildings": BUILDINGS,
            "workers": WORKERS,
            "epochs_per_building": EPOCHS,
            "epochs_total": epochs_total,
        },
        "fleet_wall_s": {
            "clean": round(clean["wall_s"], 4),
            "with_restart": round(killed["wall_s"], 4),
        },
        "buildings_per_min": round(buildings_per_min, 3),
        "epochs_per_s": round(epochs_per_s, 3),
        "restart_overhead_s": round(restart_overhead_s, 4),
        "restart_overhead_pct": round(restart_overhead_pct, 3),
        "result_hash_identical": True,
        "sha256": clean["sha256"],
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "repro.fleet -- supervised fleet throughput",
        [
            (
                "workload",
                "--",
                f"{BUILDINGS} buildings x {EPOCHS} epochs on "
                f"{WORKERS} workers",
            ),
            ("fleet wall (clean)", "--", f"{clean['wall_s']:.2f} s"),
            ("fleet wall (1 kill)", "--", f"{killed['wall_s']:.2f} s"),
            ("buildings/min", "--", f"{buildings_per_min:.1f}"),
            ("epochs/s", "--", f"{epochs_per_s:.1f}"),
            (
                "restart overhead",
                "--",
                f"{restart_overhead_s * 1000:.0f} ms "
                f"({restart_overhead_pct:.1f}%)",
            ),
            ("result bytes", "identical", "True"),
        ],
    )
