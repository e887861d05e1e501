"""Benchmark: batched vs scalar PHY Monte-Carlo engine (ISSUE 6).

Not a paper artifact: pins the perf trajectory of the uplink hot path
the way ``BENCH_store.json`` pins the telemetry store's.  Runs the
`uplink_ber`-class workload (``UplinkBasebandSimulator.measure_ber``)
under the scalar reference engine and the batched engine, profiles both
with :class:`repro.obs.ProfileProbe`, times a campaign epoch both ways,
and emits ``BENCH_phy.json`` at the repo root.

Environment knobs (``scripts/ci.sh`` sets both):

* ``REPRO_BENCH_SMOKE=1`` -- shrink the workload for CI and relax
  the speedup floor to 3x (tiny batches amortise less of the per-packet
  RNG cost; the committed full-run artifact must show >= 10x).
* ``REPRO_BENCH_OUT=/path.json`` -- redirect the artifact so CI smoke
  runs do not overwrite the committed full-run numbers.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.link.simulation import UplinkBasebandSimulator
from repro.obs import ProfileProbe
from repro.phy.batch import use_engine
from repro.runtime import experiment_registry

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Monte-Carlo workload: one BER point per SNR, fig15-class settings.
SNR_POINTS = (2.0, 3.5, 5.0) if SMOKE else (0.0, 2.0, 3.5, 5.0, 8.0)
TOTAL_BITS = 10_000 if SMOKE else 100_000
PACKET_BITS = 200
SPEEDUP_FLOOR = 3.0 if SMOKE else 10.0

BENCH_FILE = Path(
    os.environ.get(
        "REPRO_BENCH_OUT",
        Path(__file__).resolve().parents[1] / "BENCH_phy.json",
    )
)


def _ber_workload(engine):
    """All SNR points at TOTAL_BITS each; returns (bers, probe, trials/s)."""
    with use_engine(engine):
        with ProfileProbe() as probe:
            bers = [
                UplinkBasebandSimulator(seed=0x5EC0).measure_ber(
                    snr, total_bits=TOTAL_BITS, packet_bits=PACKET_BITS
                )
                for snr in SNR_POINTS
            ]
    packets = len(SNR_POINTS) * (TOTAL_BITS // PACKET_BITS)
    return bers, probe, packets / probe.wall_s


def _campaign_epoch_wall(engine):
    """Wall time of the campaign_pilot quick run under ``engine``."""
    spec = experiment_registry()["campaign_pilot"]
    with use_engine(engine):
        t0 = time.perf_counter()
        spec.execute(quick=True)
        return time.perf_counter() - t0


def test_phy_bench(benchmark):
    # Warm both engines (numpy dispatch tables, module imports).
    UplinkBasebandSimulator(seed=1).measure_ber(5.0, total_bits=1_000)
    with use_engine("scalar"):
        UplinkBasebandSimulator(seed=1).measure_ber(5.0, total_bits=1_000)

    scalar_bers, scalar_probe, scalar_tps = benchmark.pedantic(
        _ber_workload, args=("scalar",), iterations=1, rounds=1
    )
    batch_bers, batch_probe, batch_tps = _ber_workload("batch")

    # The equivalence contract, re-checked on the benchmark workload.
    assert batch_bers == scalar_bers, "batch engine diverged from scalar"

    speedup = batch_tps / scalar_tps
    epoch_scalar_s = _campaign_epoch_wall("scalar")
    epoch_batch_s = _campaign_epoch_wall("batch")

    payload = {
        "schema": "repro/bench-phy/v1",
        "smoke": SMOKE,
        "workload": {
            "snr_points": list(SNR_POINTS),
            "total_bits_per_point": TOTAL_BITS,
            "packet_bits": PACKET_BITS,
        },
        "scalar": {
            "packets_per_s": round(scalar_tps),
            "profile": scalar_probe.as_dict(),
        },
        "batch": {
            "packets_per_s": round(batch_tps),
            "profile": batch_probe.as_dict(),
        },
        "speedup_batch_vs_scalar": round(speedup, 2),
        "campaign_epoch_wall_s": {
            "scalar": round(epoch_scalar_s, 4),
            "batch": round(epoch_batch_s, 4),
        },
        "ber_identical_scalar_vs_batch": True,
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "repro.phy -- batched vs scalar uplink Monte-Carlo",
        [
            (
                "workload",
                "--",
                f"{len(SNR_POINTS)} SNR x {TOTAL_BITS} bits",
            ),
            ("scalar packets/s", "--", f"{scalar_tps:,.0f}"),
            ("batch packets/s", "--", f"{batch_tps:,.0f}"),
            ("speedup (batch)", ">= 10x full run", f"{speedup:.1f}x"),
            (
                "campaign epoch",
                "--",
                f"{epoch_scalar_s:.2f} s -> {epoch_batch_s:.2f} s",
            ),
            ("BER identical", "bit-exact", str(batch_bers == scalar_bers)),
        ],
    )

    floor = SPEEDUP_FLOOR
    assert speedup >= floor, (
        f"batch engine speedup {speedup:.1f}x below the {floor:.0f}x floor"
    )
    assert np.all(np.diff(scalar_bers) <= 1e-9), (
        "BER should not increase with SNR on this workload"
    )
