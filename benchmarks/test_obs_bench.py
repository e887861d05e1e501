"""Benchmark: obs -> store pipeline overhead (ISSUE 7).

Pins the cost of self-telemetry.  A checkpointed campaign (state dir +
telemetry store) runs with the ``_obs`` heartbeat recorder attached;
the recorder's **accounted wall time** -- the sum of its own
``obs.pipeline.record_s`` (in-memory ticks) and ``obs.pipeline.flush_s``
(batched store flushes, one fsynced commit record each) histograms -- over the campaign's
total wall time becomes ``overhead_pct`` in ``BENCH_obs.json``.

Accounted time is used instead of differencing recorder-on vs
recorder-off wall clocks because a ~2% effect drowns in multi-second
run-to-run noise on a shared machine; the recorder times itself with
``perf_counter`` around exactly the added work, and numerator and
denominator come from the *same* run.  A recorder-off twin still runs
for the zero-effect contract (byte-identical result hash) and is
reported informationally.

The campaign spans exactly ``OBS_FLUSH_EPOCHS`` epochs so the batched
flush amortises at its design cadence -- the documented budget
(enforced by ``obs trend``) is <= 2% at that default cadence.

Environment knobs (``scripts/ci.sh`` sets both):

* ``REPRO_BENCH_SMOKE=1`` -- shrink the campaign for CI and relax
  the ceiling (a handful of epochs cannot amortise the final flush;
  the committed full-run artifact must meet the real budget).
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
from repro.campaign.driver import Campaign, OBS_FLUSH_EPOCHS, result_hash
from repro.obs import observed, obs_registry
from repro.store import OBS_BUILDING, TelemetryStore

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

EPOCHS = 8 if SMOKE else OBS_FLUSH_EPOCHS
OVERHEAD_CEILING_PCT = 25.0 if SMOKE else 2.0

BENCH_FILE = Path(
    os.environ.get(
        "REPRO_BENCH_OUT",
        Path(__file__).resolve().parents[1] / "BENCH_obs.json",
    )
)


def _run_campaign(record_obs):
    """One full campaign; returns wall seconds, result hash, recorder
    accounted seconds, and the ``_obs`` series the store ended up with."""
    tmp = Path(tempfile.mkdtemp(prefix="obs-bench-"))
    try:
        config = CampaignConfig(epochs=EPOCHS, seed=7)
        with observed():
            campaign = Campaign(
                config,
                state_dir=tmp / "state",
                store_dir=tmp / "store",
                record_obs=record_obs,
            )
            t0 = time.perf_counter()
            outcome = campaign.run()
            wall = time.perf_counter() - t0
            histograms = obs_registry().snapshot()["histograms"]
        accounted = sum(
            histograms.get(f"obs.pipeline.{name}", {}).get("sum", 0.0)
            for name in ("record_s", "flush_s")
        )
        obs_series = sorted(
            k.metric
            for k in TelemetryStore(tmp / "store", create=False).keys()
            if k.building == OBS_BUILDING
        )
        return {
            "wall_s": wall,
            "hash": result_hash(outcome.result),
            "accounted_s": accounted,
            "recorder": campaign.recorder,
            "obs_series": obs_series,
        }
    finally:
        shutil.rmtree(tmp)


def test_obs_bench(benchmark):
    _run_campaign(False)  # warm imports, numpy dispatch, store code paths

    plain = _run_campaign(False)
    observed_run = benchmark.pedantic(
        _run_campaign, args=(True,), iterations=1, rounds=1
    )

    overhead_pct = (
        observed_run["accounted_s"] / observed_run["wall_s"] * 100.0
    )
    recorder = observed_run["recorder"]
    obs_series = observed_run["obs_series"]

    assert plain["accounted_s"] == 0.0, (
        "recorder-off run should account zero pipeline time"
    )
    assert observed_run["hash"] == plain["hash"], (
        "recorder perturbed the campaign result bytes"
    )
    assert "campaign.epoch_wall_s" in obs_series
    assert "campaign.epochs_run" in obs_series

    payload = {
        "schema": "repro/bench-obs/v1",
        "smoke": SMOKE,
        "workload": {
            "epochs": EPOCHS,
            "flush_every_epochs": OBS_FLUSH_EPOCHS,
        },
        "campaign_wall_s": {
            "recorder_off": round(plain["wall_s"], 4),
            "recorder_on": round(observed_run["wall_s"], 4),
        },
        "epochs_per_s": {
            "recorder_off": round(EPOCHS / plain["wall_s"], 3),
            "recorder_on": round(EPOCHS / observed_run["wall_s"], 3),
        },
        "recorder_accounted_s": round(observed_run["accounted_s"], 4),
        "overhead_pct": round(overhead_pct, 3),
        "recorder": {
            "ticks": recorder.ticks,
            "samples_written": recorder.samples_written,
            "obs_series": len(obs_series),
        },
        "result_hash_identical": True,
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "repro.obs -- self-telemetry pipeline overhead",
        [
            (
                "workload",
                "--",
                f"{EPOCHS} epochs, flush every {OBS_FLUSH_EPOCHS}",
            ),
            ("campaign wall", "--", f"{observed_run['wall_s']:.2f} s"),
            (
                "recorder accounted",
                "--",
                f"{observed_run['accounted_s'] * 1000:.1f} ms",
            ),
            (
                "overhead",
                f"<= {OVERHEAD_CEILING_PCT:g}%",
                f"{overhead_pct:.2f}%",
            ),
            ("heartbeat ticks", "--", str(recorder.ticks)),
            ("_obs series", "--", str(len(obs_series))),
            ("result bytes", "identical", "True"),
        ],
    )

    assert overhead_pct <= OVERHEAD_CEILING_PCT, (
        f"recorder overhead {overhead_pct:.2f}% exceeds the "
        f"{OVERHEAD_CEILING_PCT:g}% ceiling"
    )
