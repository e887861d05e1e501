"""Mutable campaign state: everything a checkpoint must carry.

The determinism contract of the campaign runtime is that *state at
epoch boundary N* plus *the config* fully determine every later epoch.
:class:`CampaignState` is that boundary state: the epoch cursor, the
master RNG stream (``random.Random`` with its exact Mersenne state),
the cross-epoch fault-injector memory (stuck-sensor latches and fault
totals), the grade histogram and the per-epoch summary records.
``to_dict``/``from_dict`` round-trip all of it through JSON losslessly
-- including the RNG state tuple -- which is what makes a
kill-and-resume run byte-identical to an uninterrupted one.

The SHM sample series are *not* state: each epoch's series is a pure
function of (seed, epoch, storm), so the driver regenerates them for
the committed epochs when it finalizes, and a checkpoint stays the same
size however long the campaign has run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import CampaignError

#: Schema tag for the state block inside a checkpoint.
CAMPAIGN_STATE_SCHEMA = "repro/campaign-state/v2"

#: The previous tag, whose accumulated sample series are ignored on load.
CAMPAIGN_STATE_SCHEMA_V1 = "repro/campaign-state/v1"


def encode_rng_state(state: Tuple[Any, ...]) -> List[Any]:
    """``random.Random.getstate()`` as JSON-able nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(payload: Any) -> Tuple[Any, ...]:
    """Rebuild the ``setstate`` tuple from :func:`encode_rng_state`."""
    try:
        version, internal, gauss_next = payload
        return (version, tuple(int(v) for v in internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise CampaignError(f"malformed RNG state in checkpoint: {exc}")


@dataclass
class CampaignState:
    """The resumable state of a campaign at an epoch boundary.

    Attributes:
        epoch: The next epoch to run (== completed epoch count).
        rng: Master campaign RNG (drives per-epoch deployment drift);
            its Mersenne state is serialized exactly, so a resumed
            campaign continues the same stream mid-sequence.
        stuck_latches: Cross-epoch stuck-sensor memory keyed
            ``"node:channel"`` -- a sensor that latched in epoch 3 is
            still latched in epoch 40, across any number of resumes.
        fault_totals: Accumulated fault counts across all epochs.
        grade_counts: Bridge-grade histogram over completed epochs.
        epoch_records: One summary dict per completed epoch (status,
            coverage, retries, fault counts, storm flag, grade).
        timeouts: Epochs the watchdog had to abandon.
    """

    epoch: int = 0
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    stuck_latches: Dict[str, Optional[int]] = field(default_factory=dict)
    fault_totals: Dict[str, int] = field(default_factory=dict)
    grade_counts: Dict[str, int] = field(default_factory=dict)
    epoch_records: List[Dict[str, Any]] = field(default_factory=list)
    timeouts: List[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, seed: int) -> "CampaignState":
        """Epoch-zero state for a campaign with master ``seed``."""
        return cls(rng=random.Random(f"campaign:{seed}"))

    def absorb_faults(self, counts: Mapping[str, int]) -> None:
        """Fold one epoch's fault counts into the campaign totals."""
        for name, count in counts.items():
            self.fault_totals[name] = self.fault_totals.get(name, 0) + count

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; round-trips through :meth:`from_dict`."""
        return {
            "schema": CAMPAIGN_STATE_SCHEMA,
            "epoch": self.epoch,
            "rng_state": encode_rng_state(self.rng.getstate()),
            "stuck_latches": dict(self.stuck_latches),
            "fault_totals": dict(self.fault_totals),
            "grade_counts": dict(self.grade_counts),
            "epoch_records": list(self.epoch_records),
            "timeouts": list(self.timeouts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignState":
        """Rebuild a state; raises :class:`CampaignError` on bad shape.

        A v1 state still loads; the sample series it carries are
        ignored, because the driver regenerates them.
        """
        if not isinstance(payload, Mapping):
            raise CampaignError("campaign state must be an object")
        schema = payload.get("schema")
        if schema not in (CAMPAIGN_STATE_SCHEMA, CAMPAIGN_STATE_SCHEMA_V1):
            raise CampaignError(
                f"unsupported campaign-state schema {schema!r} "
                f"(expected {CAMPAIGN_STATE_SCHEMA!r})"
            )
        try:
            rng = random.Random()
            rng.setstate(decode_rng_state(payload["rng_state"]))
            return cls(
                epoch=int(payload["epoch"]),
                rng=rng,
                stuck_latches=dict(payload["stuck_latches"]),
                fault_totals={
                    k: int(v) for k, v in payload["fault_totals"].items()
                },
                grade_counts={
                    k: int(v) for k, v in payload["grade_counts"].items()
                },
                epoch_records=[dict(r) for r in payload["epoch_records"]],
                timeouts=[int(v) for v in payload["timeouts"]],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CampaignError(f"malformed campaign state: {exc!r}")
