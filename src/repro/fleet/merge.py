"""Canonical shard merge: many campaign results, one fleet artifact.

The fleet's ``result.json`` must hash identically across worker
counts, spawn orders and any SIGKILL-and-resume schedule, so the merge
is a pure function of the *shard artifacts*:

* shards are folded in sorted building order -- never completion
  order;
* each shard contributes its campaign result's sha256 plus a summary
  of deterministic fields (epoch counts, degradations, storms,
  compliance, grades, fault totals) -- nothing wall-clock-dependent;
* quarantined shards appear as a sorted name list.  Their failure
  *reasons* (exit codes, heartbeat gaps) are operational and live in
  the fleet manifest, not here -- a heartbeat gap's magnitude would
  differ run to run and silently break the hash identity;
* the fleet hash is sha256 over the canonical JSON of the whole body.

Shard results are re-verified on load: a ``result.json`` whose stored
sha256 does not match its recomputed body fails the merge loudly
(:class:`~repro.errors.FleetError`) rather than folding corrupt bytes
into a plausible-looking fleet artifact.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..campaign.driver import CAMPAIGN_RESULT_SCHEMA, RESULT_FILENAME
from ..errors import FleetError
from ..runtime.serialize import canonical_json, read_json
from .config import FleetConfig

#: Schema tag for the fleet-level result artifact.
FLEET_RESULT_SCHEMA = "repro/fleet-result/v1"


def load_shard_result(shard_dir: Path) -> Optional[Dict[str, Any]]:
    """The verified ``result.json`` payload of one shard, or None.

    Returns the full ``{"schema", "sha256", "result"}`` payload after
    re-verifying the stored hash against the recomputed body.
    """
    path = Path(shard_dir) / RESULT_FILENAME
    if not path.exists():
        return None
    try:
        payload = read_json(path)
    except Exception as exc:  # unreadable/corrupt JSON is a loud failure
        raise FleetError(f"unreadable shard result {path}: {exc}")
    if (
        not isinstance(payload, Mapping)
        or payload.get("schema") != CAMPAIGN_RESULT_SCHEMA
        or "result" not in payload
        or "sha256" not in payload
    ):
        raise FleetError(
            f"{path} is not a campaign result "
            f"(schema {payload.get('schema') if isinstance(payload, Mapping) else None!r})"
        )
    recomputed = hashlib.sha256(
        canonical_json(payload["result"]).encode("utf-8")
    ).hexdigest()
    if recomputed != payload["sha256"]:
        raise FleetError(
            f"shard result {path} failed hash verification "
            f"(stored {payload['sha256'][:12]}, recomputed {recomputed[:12]})"
        )
    return dict(payload)


def summarize_shard(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """One shard's deterministic contribution to the fleet body."""
    result = payload["result"]
    records = result.get("epoch_records", [])
    return {
        "sha256": payload["sha256"],
        "epochs": result.get("epochs"),
        "epochs_run": result.get("epochs_run"),
        "degraded_epochs": sum(1 for r in records if r.get("degraded")),
        "epoch_timeouts": list(result.get("timeouts", [])),
        "storm_epochs": len(result.get("storm_epochs", [])),
        "storms_detected": result.get("storms_detected"),
        "sensors_mutually_verified": result.get("sensors_mutually_verified"),
        "compliant": bool(
            (result.get("compliance") or {}).get("compliant")
        ),
        "grade_fractions": dict(result.get("grade_fractions", {})),
        "fault_totals": dict(result.get("fault_totals", {})),
    }


def build_fleet_result(
    config: FleetConfig,
    shard_payloads: Mapping[str, Mapping[str, Any]],
    quarantined: Mapping[str, str],
) -> Dict[str, Any]:
    """The deterministic fleet result body (not yet wrapped/hashed).

    ``shard_payloads`` maps building -> verified shard payload;
    ``quarantined`` maps building -> reason (reasons are dropped here,
    kept in the manifest).  Every configured building must appear in
    exactly one of the two.
    """
    claimed = set(shard_payloads) | set(quarantined)
    missing = sorted(set(config.buildings) - claimed)
    if missing:
        raise FleetError(
            f"cannot merge an incomplete fleet: no result or quarantine "
            f"record for {missing}"
        )
    overlap = sorted(set(shard_payloads) & set(quarantined))
    if overlap:
        raise FleetError(
            f"shard(s) both completed and quarantined: {overlap}"
        )
    unknown = sorted(claimed - set(config.buildings))
    if unknown:
        raise FleetError(f"shard(s) not in the fleet roster: {unknown}")

    buildings: Dict[str, Any] = {}
    for name in sorted(shard_payloads):  # canonical merge order
        buildings[name] = summarize_shard(shard_payloads[name])

    survivors = list(buildings.values())
    fault_totals: Dict[str, int] = {}
    for summary in survivors:
        for key, count in summary["fault_totals"].items():
            fault_totals[key] = fault_totals.get(key, 0) + count
    totals = {
        "buildings": len(config.buildings),
        "completed": len(survivors),
        "quarantined": len(quarantined),
        "epochs_run": sum(s["epochs_run"] or 0 for s in survivors),
        "degraded_epochs": sum(s["degraded_epochs"] for s in survivors),
        "epoch_timeouts": sum(len(s["epoch_timeouts"]) for s in survivors),
        "storms_detected": sum(s["storms_detected"] or 0 for s in survivors),
        "compliant_buildings": sum(1 for s in survivors if s["compliant"]),
        "fault_totals": dict(sorted(fault_totals.items())),
    }
    # No schema tag here: the body is what gets hashed; the file
    # wrapper written by the supervisor carries the schema.
    return {
        "seed": config.seed,
        "buildings": buildings,
        "quarantined": sorted(quarantined),
        "totals": totals,
    }


def fleet_result_hash(body: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON of a fleet result body -- the
    identity the worker-count, SIGKILL-and-resume and kill-schedule
    tests compare."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
