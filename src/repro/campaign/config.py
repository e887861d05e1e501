"""Campaign configuration: the shape of a multi-month monitoring run.

A :class:`CampaignConfig` pins everything a campaign's results depend
on -- population, wall geometry, cadence, fault rates, storm schedule
and the master seed -- so the config dict inside a checkpoint is
sufficient to recompute any epoch from scratch.  The config is immutable
and serializes canonically (``repro/campaign-config/v1``); resuming a
campaign re-validates that the on-disk config matches byte-for-byte,
because a silently changed config would make "resume" produce a result
that is neither the old campaign nor a fresh one.

Epochs model one monitoring *visit* each: the paper's 17-month pilot at
one visit per week is 74 epochs (:data:`PILOT_MONTHS` /
:data:`EPOCHS_PER_MONTH`).  Storm epochs (the 15-23 July 2021 cyclone
window of Fig. 21, generalized to a recurring schedule) raise both the
response-channel variance and the fault intensity.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import CampaignError
from ..faults.plan import FaultPlan, strict_fields

#: Schema tag for serialized campaign configs.
CAMPAIGN_CONFIG_SCHEMA = "repro/campaign-config/v1"

#: The paper's pilot duration and the default visit cadence.
PILOT_MONTHS = 17
EPOCHS_PER_MONTH = 4.35  # weekly visits: 52.2 weeks / 12 months

#: Nominal per-epoch fault rates (a plausibly bad week on the bridge);
#: storm epochs scale these up via ``storm_fault_intensity``.
DEFAULT_CAMPAIGN_FAULTS: Dict[str, float] = {
    "downlink_ber": 0.001,
    "uplink_ber": 0.001,
    "reply_loss_rate": 0.03,
    "brownout_rate": 0.02,
    "reader_dropout_rate": 0.08,
    "slot_jitter_rate": 0.01,
    "stuck_sensor_rate": 0.02,
}


def pilot_epochs(months: float = PILOT_MONTHS) -> int:
    """The epoch count for a pilot of ``months`` months at weekly visits."""
    if months <= 0.0:
        raise CampaignError(f"months must be positive, got {months}")
    return max(1, int(round(months * EPOCHS_PER_MONTH)))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign's deterministic results depend on.

    Args:
        epochs: Monitoring visits to simulate (74 ~= 17 months weekly).
        nodes: Implanted capsules on the instrumented span.
        wall_length: Instrumented structure length (m).
        tx_voltage: Reader drive voltage during charge sessions (V).
        hours_per_epoch: Simulated hours of SHM data per epoch.
        samples_per_hour: Response-channel sampling cadence.
        seed: Master seed; every epoch derives its own streams from it.
        fault_rates: Nominal :class:`FaultPlan` rates (no seed/schema),
            scaled per epoch.  None disables fault injection entirely.
        fault_intensity: Multiplier applied on quiet epochs.
        storm_period_epochs: A storm hits every this-many epochs
            (0 disables storms).
        storm_duration_epochs: Consecutive storm epochs per hit.
        storm_fault_intensity: Fault multiplier during storm epochs.
        checkpoint_interval: Epochs between crash-safe checkpoints.
        checkpoint_keep: Good checkpoints retained for rollback.
        epoch_timeout_s: Watchdog bound on one epoch's wall time
            (<= 0 disables the watchdog).
    """

    epochs: int = 74
    nodes: int = 8
    wall_length: float = 8.0
    tx_voltage: float = 250.0
    hours_per_epoch: int = 168
    samples_per_hour: int = 1
    seed: int = 2021
    fault_rates: Optional[Mapping[str, float]] = field(
        default_factory=lambda: dict(DEFAULT_CAMPAIGN_FAULTS)
    )
    fault_intensity: float = 1.0
    storm_period_epochs: int = 26
    storm_duration_epochs: int = 2
    storm_fault_intensity: float = 3.0
    checkpoint_interval: int = 1
    checkpoint_keep: int = 5
    epoch_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        for name in ("epochs", "nodes", "hours_per_epoch", "samples_per_hour",
                     "checkpoint_interval", "checkpoint_keep"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise CampaignError(f"{name} must be a positive int, got {value!r}")
        for name in ("wall_length", "tx_voltage"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise CampaignError(
                    f"{name} must be finite and positive, got {value}"
                )
        for name in ("fault_intensity", "storm_fault_intensity"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise CampaignError(
                    f"{name} must be finite and non-negative, got {value}"
                )
        if self.storm_period_epochs < 0 or self.storm_duration_epochs < 0:
            raise CampaignError("storm schedule fields cannot be negative")
        if self.fault_rates is not None:
            # Validate eagerly (and normalize to a plain dict) so a bad
            # rate fails at config time, not mid-campaign at epoch 40.
            plan = FaultPlan.from_dict({**dict(self.fault_rates), "seed": 0})
            object.__setattr__(
                self, "fault_rates",
                {k: getattr(plan, k) for k in sorted(dict(self.fault_rates))},
            )

    # ------------------------------------------------------------------
    # Schedule helpers
    # ------------------------------------------------------------------

    def is_storm_epoch(self, epoch: int) -> bool:
        """Whether ``epoch`` falls in a scheduled storm window.

        Storms occupy the last ``storm_duration_epochs`` epochs of each
        ``storm_period_epochs``-long cycle, mirroring the pilot's quiet
        weeks followed by the cyclone window.
        """
        if self.storm_period_epochs <= 0 or self.storm_duration_epochs <= 0:
            return False
        phase = epoch % self.storm_period_epochs
        return phase >= max(
            0, self.storm_period_epochs - self.storm_duration_epochs
        )

    def storm_epochs(self) -> Tuple[int, ...]:
        """Every scheduled storm epoch inside the campaign."""
        return tuple(e for e in range(self.epochs) if self.is_storm_epoch(e))

    def epoch_fault_plan(self, epoch: int) -> Optional[FaultPlan]:
        """The fault plan epoch ``epoch`` runs under (None when clean).

        Seeded per epoch from the master seed so fault draws are
        independent across epochs and recomputable from the config
        alone -- a resumed campaign replays exactly the same faults.
        """
        if self.fault_rates is None:
            return None
        intensity = (
            self.storm_fault_intensity
            if self.is_storm_epoch(epoch)
            else self.fault_intensity
        )
        base = FaultPlan.from_dict(
            {**dict(self.fault_rates), "seed": self.seed * 1_000_003 + epoch}
        )
        plan = base.scaled(intensity)
        return plan if plan.active else None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (includes the schema tag)."""
        payload: Dict[str, Any] = {"schema": CAMPAIGN_CONFIG_SCHEMA}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            payload[f.name] = dict(value) if isinstance(value, Mapping) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_dict` output, strictly."""
        return cls(**strict_fields(
            cls, payload, "campaign-config", CAMPAIGN_CONFIG_SCHEMA,
            CampaignError,
        ))
