"""Campaign: the 17-month pilot as a checkpointable epoch-stepped run.

Drives :mod:`repro.campaign` end to end -- one wall charging session,
TDMA inventory and week of SHM accumulation per epoch, under the
nominal fault schedule with periodic storm windows -- and runs the
Fig. 21 analytics over the accumulated series.  The registry entry runs
fully in memory (no state directory), but the result is byte-identical
to the same config executed as a supervised ``campaign run`` on disk,
killed, and resumed: the golden snapshot pins ``extra.result_sha256``,
the exact hash the kill-and-resume tests compare.
"""

from __future__ import annotations

from ..campaign import CampaignConfig, CampaignResult, run_campaign


def run(
    epochs: int = 74,
    nodes: int = 8,
    wall_length: float = 8.0,
    tx_voltage: float = 250.0,
    hours_per_epoch: int = 168,
    samples_per_hour: int = 1,
    seed: int = 2021,
    fault_intensity: float = 1.0,
    storm_period_epochs: int = 26,
    storm_duration_epochs: int = 2,
    storm_fault_intensity: float = 3.0,
) -> CampaignResult:
    """Run the whole campaign in memory and return its final result.

    The watchdog is left disabled: registry runs execute inside worker
    threads/processes where ``SIGALRM`` is unavailable anyway, and a
    deterministic golden cannot depend on wall-clock timeouts.
    """
    config = CampaignConfig(
        epochs=epochs,
        nodes=nodes,
        wall_length=wall_length,
        tx_voltage=tx_voltage,
        hours_per_epoch=hours_per_epoch,
        samples_per_hour=samples_per_hour,
        seed=seed,
        fault_intensity=fault_intensity,
        storm_period_epochs=storm_period_epochs,
        storm_duration_epochs=storm_duration_epochs,
        storm_fault_intensity=storm_fault_intensity,
        epoch_timeout_s=0.0,
    )
    outcome = run_campaign(config)
    assert outcome.result is not None  # no signals: in-memory runs complete
    return outcome.result
