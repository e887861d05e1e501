"""repro.fleet: supervised multi-building campaign fleets.

The city-scale deployment the paper argues for: N buildings' monitoring
campaigns sharded across a pool of worker processes, supervised for
crashes and hangs, restarted from checkpoints with bounded backoff,
quarantined when poison -- and byte-deterministic through all of it.

The three invariants (enforced by ``tests/test_fleet_*``; see
``docs/FLEET.md``):

* the fleet ``result.json`` sha256 is identical across worker counts;
* it is identical across SIGKILL-and-resume of any subset of workers
  (including the supervisor itself);
* a shard that fails ``max_restarts`` consecutive times is quarantined
  *loudly* -- fleet manifest, ``fleet status``, ``fleet.quarantines``
  metric, and the result body's ``quarantined`` list -- while every
  surviving shard completes unchanged.
"""

from .config import (
    FLEET_CONFIG_SCHEMA,
    FleetConfig,
    backoff_delay,
    building_names,
    derive_shard_seed,
)
from .merge import (
    FLEET_RESULT_SCHEMA,
    build_fleet_result,
    fleet_result_hash,
    load_shard_result,
    summarize_shard,
)
from .status import fleet_status
from .supervisor import (
    FLEET_MANIFEST_FILENAME,
    FLEET_MANIFEST_SCHEMA,
    FLEET_RESULT_FILENAME,
    SHARDS_DIRNAME,
    FleetOutcome,
    FleetSupervisor,
    resume_fleet,
    run_fleet,
)
from .worker import (
    HEARTBEAT_FILENAME,
    WORKER_LOG_FILENAME,
    heartbeat_age_s,
    run_shard,
    write_heartbeat,
)

__all__ = [
    "FLEET_CONFIG_SCHEMA",
    "FLEET_MANIFEST_FILENAME",
    "FLEET_MANIFEST_SCHEMA",
    "FLEET_RESULT_FILENAME",
    "FLEET_RESULT_SCHEMA",
    "HEARTBEAT_FILENAME",
    "SHARDS_DIRNAME",
    "WORKER_LOG_FILENAME",
    "FleetConfig",
    "FleetOutcome",
    "FleetSupervisor",
    "backoff_delay",
    "build_fleet_result",
    "building_names",
    "derive_shard_seed",
    "fleet_result_hash",
    "fleet_status",
    "heartbeat_age_s",
    "load_shard_result",
    "resume_fleet",
    "run_fleet",
    "run_shard",
    "summarize_shard",
    "write_heartbeat",
]
