"""Fleet configuration: N buildings, one campaign template, one seed.

A fleet shards a city's buildings across a pool of campaign worker
processes.  Determinism at fleet scale rests on two rules pinned here:

* **Per-building seed streams.**  Each shard's campaign seed is derived
  from the fleet seed and the building *name* via sha256
  (:meth:`FleetConfig.shard_seed`), never from worker identity, spawn
  order or restart count -- so a building's result bytes depend only on
  (template config, fleet seed, building name), and any scheduling of
  any number of workers reproduces them exactly.
* **A canonical shard order.**  ``buildings`` is stored sorted and
  duplicate-free; every merge and every manifest iterates it in that
  order (see :mod:`repro.fleet.merge`).

Building names double as store partition components (the fleet's shared
``repro/store/v1`` root keys series by building), so they are validated
with the store's component rules, and reserved ``_``-prefixed names are
rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from ..campaign import CampaignConfig
from ..errors import FleetError, StoreError
from ..faults.plan import POSITIVE, check_options, option, strict_fields
from ..store import validate_component

#: Schema tag for serialized fleet configs.
FLEET_CONFIG_SCHEMA = "repro/fleet-config/v1"


def building_names(count: int) -> Tuple[str, ...]:
    """The default building roster: ``b001`` .. ``b<count>``."""
    if count < 1:
        raise FleetError(f"building count must be >= 1, got {count}")
    width = max(3, len(str(count)))
    return tuple(f"b{i:0{width}d}" for i in range(1, count + 1))


def derive_shard_seed(fleet_seed: int, building: str) -> int:
    """The campaign seed for one building's shard.

    sha256 over ``"fleet:<seed>:<building>"`` -- stable across python
    versions and PYTHONHASHSEED, collision-free in practice, and
    independent per building so shards share no RNG structure.
    """
    digest = hashlib.sha256(
        f"fleet:{fleet_seed}:{building}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def backoff_delay(
    consecutive_failures: int, base_s: float, cap_s: float
) -> float:
    """Bounded exponential backoff before restart attempt N.

    ``base_s`` after the first failure, doubling per consecutive
    failure, clamped at ``cap_s``: 0.25, 0.5, 1.0, ... for the
    defaults.  Zero failures means no wait.
    """
    if consecutive_failures <= 0:
        return 0.0
    return min(cap_s, base_s * (2.0 ** (consecutive_failures - 1)))


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet run's deterministic results depend on --
    plus the supervision knobs that only shape *wall time*.

    Args:
        buildings: Shard roster (stored sorted, duplicates rejected).
            Names must be valid store components not starting with
            ``_`` (reserved for self-telemetry namespaces).
        campaign: The per-building campaign template.  Its ``seed`` is
            ignored: each shard runs the template with its own derived
            seed (:meth:`shard_config`).
        seed: Fleet master seed, root of every shard's seed stream.
        workers: Worker-process slots (concurrent shards).  Affects
            wall time only -- never result bytes.
        max_restarts: Consecutive failures before a shard is
            quarantined as poison.  ``max_restarts=3`` means a shard
            gets 3 attempts total (2 restarts), then quarantine.
        heartbeat_timeout_s: Supervisor kills a worker whose heartbeat
            is older than this (<= 0 disables liveness checking).
            Must comfortably exceed one epoch's wall time: workers
            beat at epoch boundaries.
        backoff_base_s / backoff_max_s: Bounded exponential restart
            backoff (see :func:`backoff_delay`).
        poll_interval_s: Supervisor loop cadence (no CLI flag).
    """

    buildings: Tuple[str, ...]
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    seed: int = option(
        2021, help="fleet seed; per-building seeds derive from it"
    )
    workers: int = option(4, POSITIVE, "max concurrent shard workers")
    max_restarts: int = option(
        3, POSITIVE, "consecutive failures before quarantine"
    )
    heartbeat_timeout_s: float = option(
        30.0, help="kill a worker whose heartbeat is older "
        "(<=0 disables the liveness watchdog)"
    )
    backoff_base_s: float = option(0.25, POSITIVE)
    backoff_max_s: float = option(5.0, POSITIVE)
    poll_interval_s: float = option(0.05, POSITIVE, flag=False)

    def __post_init__(self) -> None:
        if isinstance(self.buildings, str) or not isinstance(
            self.buildings, (tuple, list)
        ):
            raise FleetError(
                f"buildings must be a sequence of names, "
                f"got {self.buildings!r}"
            )
        names = tuple(self.buildings)
        if not names:
            raise FleetError("a fleet needs at least one building")
        for name in names:
            try:
                validate_component(name, "building")
            except StoreError as exc:
                raise FleetError(str(exc))
            if name.startswith("_"):
                raise FleetError(
                    f"building name {name!r} uses the reserved '_' "
                    f"namespace (self-telemetry)"
                )
        if len(set(names)) != len(names):
            dupes = sorted(n for n in set(names) if names.count(n) > 1)
            raise FleetError(f"duplicate building name(s): {dupes}")
        object.__setattr__(self, "buildings", tuple(sorted(names)))
        if not isinstance(self.campaign, CampaignConfig):
            raise FleetError(
                f"campaign must be a CampaignConfig, got {self.campaign!r}"
            )
        check_options(self, FleetError)

    # ------------------------------------------------------------------
    # Shard derivation
    # ------------------------------------------------------------------

    def shard_seed(self, building: str) -> int:
        """This building's derived campaign seed."""
        if building not in self.buildings:
            raise FleetError(f"unknown building {building!r}")
        return derive_shard_seed(self.seed, building)

    def shard_config(self, building: str) -> CampaignConfig:
        """The campaign config one building's worker actually runs."""
        return dataclasses.replace(
            self.campaign, seed=self.shard_seed(building)
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (includes the schema tag)."""
        payload: Dict[str, Any] = {"schema": FLEET_CONFIG_SCHEMA}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "campaign":
                payload[f.name] = value.to_dict()
            elif f.name == "buildings":
                payload[f.name] = list(value)
            else:
                payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetConfig":
        """Rebuild a config from :meth:`to_dict` output, strictly."""
        kwargs = strict_fields(
            cls, payload, "fleet-config", FLEET_CONFIG_SCHEMA, FleetError
        )
        if isinstance(kwargs.get("campaign"), Mapping):
            kwargs["campaign"] = CampaignConfig.from_dict(kwargs["campaign"])
        return cls(**kwargs)
