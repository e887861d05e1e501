"""``fleet status``: a non-mutating read of a fleet directory's health.

Classifies every shard from persisted state only -- the manifest, the
shard's checkpoints, its heartbeat file and its ``result.json`` -- so
it is safe to run while a supervisor is live (and tells the truth
after one died):

* ``quarantined`` -- the manifest recorded the shard as poison;
* ``completed``   -- the shard's verified campaign result exists;
* ``running``     -- a recent heartbeat from a live worker pid;
* ``recovering``  -- failures on record, not yet completed;
* ``pending``     -- none of the above (not started, or waiting).

The summary buckets these into the operator's three-way view:
**healthy** (completed / running / pending with a clean record),
**recovering**, **quarantined**.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..campaign.checkpoint import CheckpointStore
from ..campaign.driver import CHECKPOINT_DIRNAME, RESULT_FILENAME
from ..store import pid_alive
from .config import FleetConfig
from .supervisor import (
    FLEET_MANIFEST_FILENAME,
    FLEET_RESULT_FILENAME,
    SHARDS_DIRNAME,
    read_fleet_manifest,
)
from .worker import HEARTBEAT_FILENAME, heartbeat_age_s

#: Status labels (superset of the manifest's persisted states).
COMPLETED = "completed"
RUNNING = "running"
RECOVERING = "recovering"
PENDING = "pending"
QUARANTINED = "quarantined"

#: Healthy = making progress or cleanly done.
HEALTHY_STATES = (COMPLETED, RUNNING, PENDING)


def _heartbeat_pid(shard_dir: Path) -> Optional[int]:
    try:
        payload = json.loads((shard_dir / HEARTBEAT_FILENAME).read_text())
        return int(payload.get("pid"))
    except (OSError, ValueError, TypeError):
        return None


def fleet_status(fleet_dir: Union[str, Path]) -> Dict[str, Any]:
    """A JSON-ready health snapshot of a fleet directory."""
    fleet_dir = Path(fleet_dir)
    manifest = read_fleet_manifest(
        fleet_dir, f"no fleet at {fleet_dir} (missing {FLEET_MANIFEST_FILENAME})"
    )
    config = FleetConfig.from_dict(manifest["config"])
    heartbeat_budget = config.heartbeat_timeout_s

    shards: Dict[str, Any] = {}
    counts = {COMPLETED: 0, RUNNING: 0, RECOVERING: 0, PENDING: 0,
              QUARANTINED: 0}
    for building in config.buildings:
        entry = manifest.get("shards", {}).get(building, {})
        shard_dir = fleet_dir / SHARDS_DIRNAME / building
        checkpoint_epoch = CheckpointStore(
            shard_dir / CHECKPOINT_DIRNAME
        ).latest_epoch()
        age = heartbeat_age_s(shard_dir)
        failures_total = int(entry.get("failures_total", 0))
        if entry.get("status") == "quarantined":
            status = QUARANTINED
        elif (shard_dir / RESULT_FILENAME).exists():
            status = COMPLETED
        elif (
            age is not None
            and (heartbeat_budget <= 0 or age <= heartbeat_budget)
            and pid_alive(_heartbeat_pid(shard_dir) or -1)
        ):
            status = RECOVERING if failures_total else RUNNING
        elif failures_total:
            status = RECOVERING
        else:
            status = PENDING
        counts[status] += 1
        shards[building] = {
            "status": status,
            "checkpoint_epoch": checkpoint_epoch,
            "epochs_total": config.campaign.epochs,
            "heartbeat_age_s": round(age, 3) if age is not None else None,
            "failures_total": failures_total,
            "failures": list(entry.get("failures", [])),
            "quarantine_reason": entry.get("quarantine_reason"),
        }

    return {
        "fleet_dir": str(fleet_dir),
        "buildings": len(config.buildings),
        "workers": config.workers,
        "complete": bool(manifest.get("complete")),
        "interrupted": bool(manifest.get("interrupted")),
        "result_sha256": manifest.get("result_sha256"),
        "result_exists": (fleet_dir / FLEET_RESULT_FILENAME).exists(),
        "supervision": dict(manifest.get("supervision", {})),
        "shards": shards,
        "summary": {
            "healthy": sum(counts[s] for s in HEALTHY_STATES),
            "recovering": counts[RECOVERING],
            "quarantined": counts[QUARANTINED],
            **{state: counts[state] for state in counts},
        },
    }
