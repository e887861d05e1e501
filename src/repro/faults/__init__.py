"""Fault injection: deterministic hostile-world modelling for the stack.

``repro.faults`` is the layer that lets every simulator above it stop
assuming a perfect world.  A :class:`FaultPlan` declares *what* can go
wrong (bit errors, lost replies, brownouts, reader dropouts, slot
jitter, stuck sensors) as seeded probabilities; a
:class:`FaultInjector` built from the plan decides *when* each fault
fires, reproducibly.  ``TdmaInventory`` and ``WallSession`` accept a
plan directly; the CLI loads one from JSON via
``experiments run --faults plan.json``.

Beyond the physical-world faults, sibling modules model a hostile
*machine*: :mod:`repro.faults.io` injects seeded storage faults
(ENOSPC, EIO, torn writes, dropped renames, bit rot) underneath every
real write path, :mod:`repro.faults.chaos` runs end-to-end drills
proving the stack recovers from them -- or fails loudly -- never
silently diverging, and :mod:`repro.faults.worker` kills, hangs or
poisons fleet workers.

The three plan formats stay separate; each job they share has one
implementation in :mod:`repro.faults.plan` (``RatePlan``,
``SeededInjector``, ``PlanFile`` and the ``strict_fields`` parser).

See ``docs/ROBUSTNESS.md`` for the fault taxonomy, the plan schema and
the retry/degradation policies layered on top.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..errors": ("FaultPlanError",),
    ".chaos": ("CHAOS_SCHEMA", "evaluate_drill", "run_drill", "verify_drill"),
    ".chaos_config": ("ChaosConfig",),
    ".injector": ("FaultInjector",),
    ".io": (
        "IO_FAULT_SCHEMA",
        "IO_RATE_FIELDS",
        "IoFaultInjector",
        "IoFaultPlan",
        "active_io_injector",
        "clear_io_faults",
        "install_io_faults",
        "io_faults",
        "io_faults_active",
        "reclaim_tmp_files",
        "retry_io",
    ),
    ".plan": (
        "FAULT_PLAN_SCHEMA",
        "FaultPlan",
        "RATE_FIELDS",
        "ber_from_snr_db",
        "plan_from_link_budget",
    ),
    ".worker": (
        "UNBOUNDED",
        "WORKER_FAULT_ACTIONS",
        "WORKER_FAULT_SCHEMA",
        "WorkerFault",
        "WorkerFaultPlan",
    ),
})
