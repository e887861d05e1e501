"""Crash-safe campaign runtime: the checkpointed multi-month pilot.

Simulates the paper's 17-month footbridge pilot as a long-running,
epoch-stepped process -- one wall charging session + TDMA inventory +
SHM accumulation per weekly visit -- that survives being killed at any
point: state lives in versioned, hash-verified checkpoints
(``repro/campaign-checkpoint/v1``) plus an append-only CRC'd epoch log,
and ``campaign resume`` continues to a final result byte-identical to
an uninterrupted run.  See ``docs/CAMPAIGN.md`` for the checkpoint
format, resume semantics and the corruption-recovery matrix.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checkpoint": (
        "CHECKPOINT_SCHEMA",
        "QUARANTINE_DIRNAME",
        "CheckpointStore",
        "checkpoint_digest",
    ),
    ".config": (
        "CAMPAIGN_CONFIG_SCHEMA",
        "DEFAULT_CAMPAIGN_FAULTS",
        "EPOCHS_PER_MONTH",
        "PILOT_MONTHS",
        "CampaignConfig",
        "pilot_epochs",
    ),
    ".driver": (
        "CAMPAIGN_RESULT_SCHEMA",
        "CHECKPOINT_DIRNAME",
        "EPOCH_LOG_FILENAME",
        "RESULT_FILENAME",
        "STORE_BUILDING",
        "STORE_WALL",
        "Campaign",
        "CampaignOutcome",
        "CampaignResult",
        "EpochSamples",
        "campaign_status",
        "result_hash",
        "resume_campaign",
        "run_campaign",
    ),
    ".log": ("EPOCH_LOG_SCHEMA", "EpochLog"),
    ".state": ("CAMPAIGN_STATE_SCHEMA", "CampaignState"),
    ".watchdog": (
        "EpochTimeout",
        "ShutdownGuard",
        "epoch_deadline",
        "watchdog_available",
    ),
})
