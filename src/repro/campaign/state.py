"""Mutable campaign state: the epoch records plus the boundary state.

The determinism contract of the campaign runtime is that *state at
epoch boundary N* plus *the config* fully determine every later epoch.
That boundary state is small: the epoch count, the master RNG stream
(``random.Random`` with its exact Mersenne state) and the cross-epoch
stuck-sensor latches.  ``to_dict`` writes exactly those three into a
checkpoint, losslessly -- including the RNG state tuple -- which is
what makes a kill-and-resume run byte-identical to an uninterrupted
one.

The per-epoch records live in the epoch log, which is their only copy
on disk: :meth:`CampaignState.from_dict` takes them from there, and the
grade histogram, fault totals and timeouts of the result are sums over
them.  The SHM sample series are not state either: each epoch's series
is a pure function of (seed, epoch, storm), so the driver regenerates
them for the committed epochs when it finalizes.  A checkpoint
therefore stays the same size however long the campaign has run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import CampaignError

#: Schema tag for the state block inside a checkpoint.
CAMPAIGN_STATE_SCHEMA = "repro/campaign-state/v3"

#: Earlier tags.  Their boundary fields load through the same code; the
#: records, totals and sample series they also carried are ignored.
OLDER_STATE_SCHEMAS = ("repro/campaign-state/v1", "repro/campaign-state/v2")


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
        rng: Master campaign RNG (drives per-epoch deployment drift);
            its Mersenne state is serialized exactly, so a resumed
            campaign continues the same stream mid-sequence.
        stuck_latches: Cross-epoch stuck-sensor memory keyed
            ``"node:channel"`` -- a sensor that latched in epoch 3 is
            still latched in epoch 40, across any number of resumes.
        epoch_records: One summary dict per completed epoch (status,
            coverage, retries, fault counts, storm flag, grade), in
            epoch order.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    stuck_latches: Dict[str, Optional[int]] = field(default_factory=dict)
    epoch_records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def epoch(self) -> int:
        """The next epoch to run (== completed epoch count)."""
        return len(self.epoch_records)

    @classmethod
    def fresh(cls, seed: int) -> "CampaignState":
        """Epoch-zero state for a campaign with master ``seed``."""
        return cls(rng=random.Random(f"campaign:{seed}"))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The boundary state, JSON-ready; :meth:`from_dict` inverts it."""
        return {
            "schema": CAMPAIGN_STATE_SCHEMA,
            "epoch": self.epoch,
            "rng_state": encode_rng_state(self.rng.getstate()),
            "stuck_latches": dict(self.stuck_latches),
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], records: Sequence[Mapping[str, Any]]
    ) -> "CampaignState":
        """Rebuild a state from its boundary fields and the epoch log's records.

        ``records`` must be exactly epochs ``0 .. epoch-1``.  Raises
        :class:`CampaignError` on a bad shape or records that do not
        match the boundary.
        """
        if not isinstance(payload, Mapping):
            raise CampaignError("campaign state must be an object")
        schema = payload.get("schema")
        if schema != CAMPAIGN_STATE_SCHEMA and schema not in OLDER_STATE_SCHEMAS:
            raise CampaignError(
                f"unsupported campaign-state schema {schema!r} "
                f"(expected {CAMPAIGN_STATE_SCHEMA!r})"
            )
        try:
            epoch = int(payload["epoch"])
            rng = random.Random()
            rng.setstate(decode_rng_state(payload["rng_state"]))
            latches = dict(payload["stuck_latches"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CampaignError(f"malformed campaign state: {exc!r}")
        if [record.get("epoch") for record in records] != list(range(epoch)):
            raise CampaignError(
                f"the state is at epoch {epoch} but its {len(records)} "
                f"record(s) are not epochs 0 .. {epoch - 1}"
            )
        return cls(
            rng=rng,
            stuck_latches=latches,
            epoch_records=[dict(record) for record in records],
        )
