"""The chaos drill's configuration, apart from the drill runner.

:class:`ChaosConfig` declares a drill's workload and fault schedule.
It lives here rather than in :mod:`repro.faults.chaos` so that reading
its options (as the CLI's parser does) loads only the campaign and
fleet configs, not the campaign driver and fleet supervisor a drill
runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..campaign.config import CampaignConfig
from ..errors import ChaosError
from ..fleet.config import FleetConfig, building_names
from .io import IoFaultPlan
from .plan import POSITIVE, check_options, option, strict_fields

SCENARIOS = ("campaign", "fleet", "store")


@dataclass(frozen=True)
class ChaosConfig:
    """One drill's workload + fault schedule.

    Args:
        scenario: ``campaign`` | ``fleet`` | ``store``.
        seed: Workload seed (campaign seed, fleet seed, or the store
            scenario's data seed).  Independent of ``plan.seed``.
        epochs / nodes / hours_per_epoch: The campaign shape (used by
            the campaign and fleet scenarios).
        buildings: Fleet roster size (fleet + store scenarios).
        batches / rows_per_batch: Store-scenario ingest shape.
        max_attempts: Faulted attempts per unit of work (the whole run
            for campaign/fleet; per batch for store) before the drill
            gives up loudly.
        plan: The storage-fault schedule.  Each attempt re-derives the
            plan seed, so retries see different fault draws.
    """

    scenario: str = option("campaign", SCENARIOS)
    seed: int = option(2021, help="workload seed (campaign/fleet/store data)")
    epochs: int = option(4, POSITIVE)
    nodes: int = option(4, POSITIVE)
    hours_per_epoch: int = option(24, POSITIVE)
    buildings: int = option(3, POSITIVE)
    batches: int = option(6, POSITIVE)
    rows_per_batch: int = option(64, POSITIVE)
    max_attempts: int = option(
        5, POSITIVE, "faulted attempts per work unit before giving up loudly"
    )
    plan: IoFaultPlan = field(default_factory=IoFaultPlan)

    def __post_init__(self) -> None:
        check_options(self, ChaosError)
        if not isinstance(self.plan, IoFaultPlan):
            raise ChaosError(
                f"plan must be an IoFaultPlan, got {type(self.plan).__name__}"
            )

    def to_dict(self) -> Dict[str, Any]:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["plan"] = self.plan.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosConfig":
        kwargs = strict_fields(cls, payload, "chaos config", error=ChaosError)
        if "plan" in kwargs:
            kwargs["plan"] = IoFaultPlan.from_dict(kwargs["plan"])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Derived workload configs
    # ------------------------------------------------------------------

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(
            epochs=self.epochs,
            nodes=self.nodes,
            hours_per_epoch=self.hours_per_epoch,
            seed=self.seed,
            checkpoint_interval=1,
        )

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            buildings=building_names(self.buildings),
            campaign=self.campaign_config(),
            seed=self.seed,
            workers=2,
            max_restarts=3,
        )

    def attempt_plan(self, unit: int, attempt: int) -> IoFaultPlan:
        """The fault plan for one (work unit, attempt) pair.

        Unit is 0 for the campaign/fleet scenarios and the batch index
        for the store scenario; each pair draws from its own streams so
        a retry is a fresh roll of the same loaded dice.
        """
        return dataclasses.replace(
            self.plan,
            seed=self.plan.seed * 1_000_003 + unit * 97 + attempt,
        )
