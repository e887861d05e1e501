"""Chaos drills: seeded storage-fault schedules with a mechanical oracle.

A *drill* proves the "recovered or loud, never silently wrong"
contract end to end: it computes a fault-free **clean reference**,
re-runs the same workload under an :class:`~repro.faults.io.IoFaultPlan`
(the **drill**), and then checks the oracle mechanically --

* **campaign** scenario: the drill's ``result.json`` sha256 must equal
  the clean run's, always.  Storage faults may slow the campaign, force
  checkpoint retries or degrade the ``--store`` export, but they can
  never change result bytes;
* **fleet** scenario: the drill's fleet sha equals the clean one, *or*
  the divergence is exactly explained by quarantined shards -- every
  surviving building's embedded campaign sha must still match the
  clean reference's;
* **store** scenario: every series the drill store holds must be a
  subset of the clean store's with equal values at equal timestamps;
  missing rows are allowed only when the drill recorded the faults (or
  batch failures) that lost them.

Verdicts (:func:`evaluate_drill`):

========== ====================================================== ====
status     meaning                                                exit
========== ====================================================== ====
pass       oracle held, artifacts byte-equivalent                 0
degraded   oracle held; divergence fully explained by recorded    0
           fault accounting (quarantine, skipped batches, export
           degradation)
loud       the drill failed to produce a final artifact, but      4
           failed *loudly* -- every error recorded, nothing
           silently wrong
fail       silent divergence: a different hash, corrupt bytes,    1
           or losses nothing accounts for
========== ====================================================== ====

Drills are resumable: the ``chaos.json`` manifest records attempt /
batch progress (written fault-free), so a drill killed mid-run picks
up where it stopped -- ``chaos run`` on the same directory converges
to the same verdict.  Faults are installed *only* around the drilled
workload; the runner's own bookkeeping always writes clean.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..campaign.driver import RESULT_FILENAME, run_or_resume_campaign
from ..errors import ChaosError, ReproError
from ..fleet.config import building_names
from ..fleet.merge import (
    FLEET_RESULT_SCHEMA,
    build_fleet_result,
    fleet_result_hash,
    load_shard_result,
)
from ..fleet.supervisor import (
    FLEET_MANIFEST_FILENAME,
    run_fleet,
    resume_fleet,
)
from ..obs import obs_event
from ..runtime.serialize import canonical_json, read_json, write_json_atomic
from ..store import TelemetryStore, ingest_series
from .chaos_config import ChaosConfig
from .io import IoFaultInjector, io_faults

#: Schema tag for the drill manifest (``chaos.json``).
CHAOS_SCHEMA = "repro/chaos-drill/v1"

CHAOS_MANIFEST_FILENAME = "chaos.json"
CLEAN_DIRNAME = "clean"
DRILL_DIRNAME = "drill"

#: Verdict statuses, and which ones the CLI treats as success.
PASS, DEGRADED, LOUD, FAIL = "pass", "degraded", "loud", "fail"
OK_STATUSES = (PASS, DEGRADED)

#: Error strings retained in the manifest (audit tail).
MAX_RECORDED_ERRORS = 20

#: Store-scenario series naming.
STORE_WALL = "chaos"
STORE_METRIC = "value"


# ----------------------------------------------------------------------
# Manifest plumbing (always written fault-free)
# ----------------------------------------------------------------------

def _manifest_path(chaos_dir: Path) -> Path:
    return chaos_dir / CHAOS_MANIFEST_FILENAME


def _fresh_manifest(config: ChaosConfig) -> Dict[str, Any]:
    return {
        "schema": CHAOS_SCHEMA,
        "config": config.to_dict(),
        "status": "running",
        "attempts_done": 0,
        "batches_done": 0,
        "batches_failed": [],
        "io": {},
        "export_failures": 0,
        "errors": [],
        "verdict": None,
    }


def _load_manifest(chaos_dir: Path) -> Dict[str, Any]:
    path = _manifest_path(chaos_dir)
    try:
        payload = read_json(path)
    except (OSError, ValueError) as exc:
        raise ChaosError(f"unreadable chaos manifest {path}: {exc}")
    if not isinstance(payload, dict) or payload.get("schema") != CHAOS_SCHEMA:
        raise ChaosError(
            f"{path} is not a chaos manifest (expected schema {CHAOS_SCHEMA!r})"
        )
    return payload


def _save_manifest(chaos_dir: Path, manifest: Mapping[str, Any]) -> None:
    write_json_atomic(_manifest_path(chaos_dir), manifest)


def _absorb_counts(manifest: Dict[str, Any], injector: Optional[IoFaultInjector]) -> None:
    if injector is None:
        return
    totals = manifest.setdefault("io", {})
    for name, count in injector.counts.items():
        totals[name] = totals.get(name, 0) + count


def _record_error(manifest: Dict[str, Any], where: str, exc: BaseException) -> None:
    errors = manifest.setdefault("errors", [])
    errors.append(f"{where}: {type(exc).__name__}: {exc}")
    del errors[:-MAX_RECORDED_ERRORS]


def _accounted(manifest: Mapping[str, Any]) -> bool:
    """True when the manifest records any fault impact at all."""
    return bool(
        sum((manifest.get("io") or {}).values())
        or manifest.get("errors")
        or manifest.get("export_failures")
        or manifest.get("batches_failed")
    )


# ----------------------------------------------------------------------
# Result-file verification (shared by every scenario's oracle)
# ----------------------------------------------------------------------

def _verified_result(path: Path) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """``(payload, problem)`` for a ``{"schema","sha256","result"}`` file.

    The embedded sha256 is recomputed over the canonical body -- a
    corrupted byte anywhere in the result is caught here, which is the
    teeth behind the CI silent-corruption fixture.
    """
    if not path.exists():
        return None, "missing"
    try:
        payload = read_json(path)
    except (OSError, ValueError) as exc:
        return None, f"unreadable: {exc}"
    if (
        not isinstance(payload, dict)
        or "result" not in payload
        or "sha256" not in payload
    ):
        return None, "malformed result payload"
    recomputed = hashlib.sha256(
        canonical_json(payload["result"]).encode("utf-8")
    ).hexdigest()
    if recomputed != payload["sha256"]:
        return None, (
            f"embedded sha mismatch (stored {str(payload['sha256'])[:12]}, "
            f"recomputed {recomputed[:12]})"
        )
    return payload, None


# ----------------------------------------------------------------------
# Clean references
# ----------------------------------------------------------------------

def _batch_series(config: ChaosConfig, batch: int) -> Tuple[str, np.ndarray, np.ndarray]:
    """The store scenario's deterministic synthetic batch ``batch``."""
    rng = random.Random(f"{config.seed}:chaos-store:{batch}")
    t0 = float(batch * config.rows_per_batch)
    t = t0 + np.arange(config.rows_per_batch, dtype=np.float64)
    v = np.array(
        [rng.uniform(-1.0, 1.0) for _ in range(config.rows_per_batch)],
        dtype=np.float64,
    )
    roster = building_names(config.buildings)
    return roster[batch % config.buildings], t, v


def _ensure_clean(chaos_dir: Path, config: ChaosConfig) -> None:
    """Compute (or resume computing) the fault-free reference artifacts."""
    clean = chaos_dir / CLEAN_DIRNAME
    if config.scenario == "campaign":
        if not (clean / "state" / RESULT_FILENAME).exists():
            run_or_resume_campaign(
                config.campaign_config(), clean / "state",
                store_dir=clean / "store",
            )
    elif config.scenario == "fleet":
        fleet_cfg = config.fleet_config()
        result_path = clean / "result.json"
        if result_path.exists():
            return
        payloads: Dict[str, Dict[str, Any]] = {}
        for name in fleet_cfg.buildings:
            shard_dir = clean / "shards" / name
            if not (shard_dir / RESULT_FILENAME).exists():
                # In-process and sequential: the reference needs
                # determinism, not throughput.
                run_or_resume_campaign(
                    fleet_cfg.shard_config(name), shard_dir,
                    store_building=name,
                )
            payload = load_shard_result(shard_dir)
            if payload is None:
                raise ChaosError(f"clean shard {name} produced no result")
            payloads[name] = payload
        body = build_fleet_result(fleet_cfg, payloads, {})
        write_json_atomic(
            result_path,
            {
                "schema": FLEET_RESULT_SCHEMA,
                "sha256": fleet_result_hash(body),
                "result": body,
            },
        )
    else:  # store
        done_marker = clean / "store_done.json"
        if done_marker.exists():
            return
        store_dir = clean / "store"
        if store_dir.exists():
            # A clean ingest died midway; it is cheap and fault-free,
            # so rebuild it from scratch rather than reconciling.
            shutil.rmtree(store_dir)
        store = TelemetryStore(store_dir)
        for batch in range(config.batches):
            building, t, v = _batch_series(config, batch)
            with store.writer() as writer:
                ingest_series(writer, building, STORE_WALL, STORE_METRIC, t, v)
        write_json_atomic(done_marker, {"schema": CHAOS_SCHEMA, "batches": config.batches})


# ----------------------------------------------------------------------
# The faulted drill
# ----------------------------------------------------------------------

def _drill_campaign(
    chaos_dir: Path, config: ChaosConfig, manifest: Dict[str, Any]
) -> None:
    drill = chaos_dir / DRILL_DIRNAME
    state_dir, store_dir = drill / "state", drill / "store"
    while (
        manifest["attempts_done"] < config.max_attempts
        and not (state_dir / RESULT_FILENAME).exists()
    ):
        attempt = manifest["attempts_done"]
        with io_faults(config.attempt_plan(0, attempt)) as injector:
            try:
                campaign, _ = run_or_resume_campaign(
                    config.campaign_config(), state_dir, store_dir=store_dir
                )
                manifest["export_failures"] += len(campaign.export_failures)
            except (OSError, ReproError) as exc:
                _record_error(manifest, f"campaign attempt {attempt}", exc)
        _absorb_counts(manifest, injector)
        manifest["attempts_done"] = attempt + 1
        _save_manifest(chaos_dir, manifest)


def _drill_fleet(
    chaos_dir: Path, config: ChaosConfig, manifest: Dict[str, Any]
) -> None:
    drill = chaos_dir / DRILL_DIRNAME
    fleet_dir = drill / "fleet"
    fleet_cfg = config.fleet_config()
    while (
        manifest["attempts_done"] < config.max_attempts
        and not (fleet_dir / RESULT_FILENAME).exists()
    ):
        attempt = manifest["attempts_done"]
        with io_faults(config.attempt_plan(0, attempt)) as injector:
            try:
                # Forked workers inherit the installed injector, so the
                # whole fleet -- supervisor manifests, worker
                # checkpoints, heartbeats, shard results -- runs on the
                # faulted disk.
                if (fleet_dir / FLEET_MANIFEST_FILENAME).exists():
                    resume_fleet(fleet_dir)
                else:
                    run_fleet(fleet_cfg, fleet_dir)
            except (OSError, ReproError) as exc:
                _record_error(manifest, f"fleet attempt {attempt}", exc)
        _absorb_counts(manifest, injector)
        manifest["attempts_done"] = attempt + 1
        _save_manifest(chaos_dir, manifest)


def _drill_store(
    chaos_dir: Path, config: ChaosConfig, manifest: Dict[str, Any]
) -> None:
    store_dir = chaos_dir / DRILL_DIRNAME / "store"
    store = TelemetryStore(store_dir)
    while manifest["batches_done"] < config.batches:
        batch = manifest["batches_done"]
        building, t, v = _batch_series(config, batch)
        ingested = False
        for attempt in range(config.max_attempts):
            # Heal (fault-free) before each attempt: cut any partially
            # appended rows of THIS batch, exactly the campaign
            # resume's truncate_from + replay shape.
            try:
                store.truncate_from(
                    float(t[0]),
                    keys=[k for k in store.keys() if k.building == building],
                )
            except ReproError as exc:
                _record_error(manifest, f"store heal batch {batch}", exc)
                break
            with io_faults(config.attempt_plan(batch, attempt)) as injector:
                try:
                    with store.writer() as writer:
                        ingest_series(
                            writer, building, STORE_WALL, STORE_METRIC, t, v
                        )
                    ingested = True
                except (OSError, ReproError) as exc:
                    _record_error(
                        manifest, f"store batch {batch} attempt {attempt}", exc
                    )
            _absorb_counts(manifest, injector)
            if ingested:
                break
        if not ingested:
            manifest.setdefault("batches_failed", []).append(batch)
        manifest["batches_done"] = batch + 1
        _save_manifest(chaos_dir, manifest)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

def _verdict(
    config: ChaosConfig,
    manifest: Mapping[str, Any],
    status: str,
    reasons: List[str],
    **extra: Any,
) -> Dict[str, Any]:
    return {
        "scenario": config.scenario,
        "status": status,
        "reasons": reasons,
        "accounted": _accounted(manifest),
        "io": dict(manifest.get("io") or {}),
        "errors_recorded": len(manifest.get("errors") or []),
        **extra,
    }


def _evaluate_campaign(
    chaos_dir: Path, config: ChaosConfig, manifest: Mapping[str, Any]
) -> Dict[str, Any]:
    clean_payload, problem = _verified_result(
        chaos_dir / CLEAN_DIRNAME / "state" / RESULT_FILENAME
    )
    if clean_payload is None:
        raise ChaosError(f"clean campaign reference unusable: {problem}")
    drill_path = chaos_dir / DRILL_DIRNAME / "state" / RESULT_FILENAME
    drill_payload, problem = _verified_result(drill_path)
    if drill_payload is None:
        if problem == "missing" and _accounted(manifest):
            return _verdict(
                config, manifest, LOUD,
                ["drill produced no result, but every failure was recorded"],
                clean_sha256=clean_payload["sha256"], drill_sha256=None,
            )
        return _verdict(
            config, manifest, FAIL,
            [f"drill result {problem}"
             + ("" if _accounted(manifest) else " with no fault accounting")],
            clean_sha256=clean_payload["sha256"], drill_sha256=None,
        )
    if drill_payload["sha256"] != clean_payload["sha256"]:
        # The campaign contract has no degraded branch: storage faults
        # must never reach result bytes.
        return _verdict(
            config, manifest, FAIL,
            ["drill campaign sha diverged from the clean reference"],
            clean_sha256=clean_payload["sha256"],
            drill_sha256=drill_payload["sha256"],
        )
    status = DEGRADED if _accounted(manifest) else PASS
    reasons = (
        ["sha equal; injected faults absorbed by retry/degrade paths"]
        if status == DEGRADED
        else ["sha equal; no faults fired"]
    )
    return _verdict(
        config, manifest, status, reasons,
        clean_sha256=clean_payload["sha256"],
        drill_sha256=drill_payload["sha256"],
    )


def _evaluate_fleet(
    chaos_dir: Path, config: ChaosConfig, manifest: Mapping[str, Any]
) -> Dict[str, Any]:
    clean_payload, problem = _verified_result(
        chaos_dir / CLEAN_DIRNAME / "result.json"
    )
    if clean_payload is None:
        raise ChaosError(f"clean fleet reference unusable: {problem}")
    drill_path = chaos_dir / DRILL_DIRNAME / "fleet" / RESULT_FILENAME
    drill_payload, problem = _verified_result(drill_path)
    if drill_payload is None:
        status = LOUD if problem == "missing" and _accounted(manifest) else FAIL
        return _verdict(
            config, manifest, status,
            [f"drill fleet result {problem}"],
            clean_sha256=clean_payload["sha256"], drill_sha256=None,
        )
    if drill_payload["sha256"] == clean_payload["sha256"]:
        status = DEGRADED if _accounted(manifest) else PASS
        return _verdict(
            config, manifest, status,
            ["fleet sha equal to the clean reference"],
            clean_sha256=clean_payload["sha256"],
            drill_sha256=drill_payload["sha256"],
        )
    # Divergence is legal only through quarantine, and every surviving
    # shard must still match its clean per-building sha.
    clean_buildings = clean_payload["result"]["buildings"]
    drill_body = drill_payload["result"]
    quarantined = list(drill_body.get("quarantined") or [])
    reasons: List[str] = []
    if not quarantined:
        reasons.append("fleet sha diverged with no quarantined shard")
    for name, summary in (drill_body.get("buildings") or {}).items():
        clean_summary = clean_buildings.get(name)
        if clean_summary is None:
            reasons.append(f"drill grew an unknown building {name!r}")
        elif summary.get("sha256") != clean_summary.get("sha256"):
            reasons.append(
                f"surviving shard {name} diverged from its clean sha"
            )
    if reasons:
        return _verdict(
            config, manifest, FAIL, reasons,
            clean_sha256=clean_payload["sha256"],
            drill_sha256=drill_payload["sha256"],
        )
    return _verdict(
        config, manifest, DEGRADED,
        [f"divergence exactly explained by quarantine of {quarantined}"],
        clean_sha256=clean_payload["sha256"],
        drill_sha256=drill_payload["sha256"],
        quarantined=quarantined,
    )


def _evaluate_store(
    chaos_dir: Path, config: ChaosConfig, manifest: Mapping[str, Any]
) -> Dict[str, Any]:
    try:
        clean = TelemetryStore(chaos_dir / CLEAN_DIRNAME / "store", create=False)
    except ReproError as exc:
        raise ChaosError(f"clean store reference unusable: {exc}")
    drill_root = chaos_dir / DRILL_DIRNAME / "store"
    reasons: List[str] = []
    deficits = 0
    try:
        drill = TelemetryStore(drill_root, create=False)
        drill_keys = set(drill.keys())
        clean_keys = set(clean.keys())
        for key in sorted(drill_keys - clean_keys):
            reasons.append(f"drill store fabricated series {key.relpath}")
        for key in sorted(clean_keys):
            clean_data = clean.read(key)
            if key not in drill_keys:
                deficits += int(clean_data["t"].size)
                continue
            drill_data = drill.read(key)
            ct, cv = clean_data["t"], clean_data["value"]
            dt, dv = drill_data["t"], drill_data["value"]
            pos = np.searchsorted(ct, dt)
            valid = pos < ct.size
            if not bool(valid.all()) or not bool(
                np.all(ct[pos[valid]] == dt[valid])
            ):
                reasons.append(
                    f"series {key.relpath} holds timestamps the clean "
                    "store never wrote"
                )
                continue
            if not bool(np.all(cv[pos] == dv)):
                reasons.append(
                    f"series {key.relpath} holds values that differ from "
                    "the clean store's at the same timestamps"
                )
                continue
            deficits += int(np.setdiff1d(ct, dt).size)
    except ReproError as exc:
        # Corruption surfaced loudly (SegmentError, quarantine, missing
        # store) -- legal iff the drill accounted for faults.
        status = LOUD if _accounted(manifest) else FAIL
        return _verdict(
            config, manifest, status,
            [f"drill store read failed loudly: {exc}"],
        )
    if reasons:
        return _verdict(config, manifest, FAIL, reasons, deficit_rows=deficits)
    if deficits:
        if not _accounted(manifest):
            return _verdict(
                config, manifest, FAIL,
                [f"{deficits} rows missing with no fault accounting"],
                deficit_rows=deficits,
            )
        return _verdict(
            config, manifest, DEGRADED,
            [f"{deficits} rows lost, fully accounted by recorded faults"],
            deficit_rows=deficits,
        )
    status = DEGRADED if _accounted(manifest) else PASS
    return _verdict(
        config, manifest, status,
        ["drill store content equals the clean reference"],
        deficit_rows=0,
    )


def evaluate_drill(chaos_dir: Union[str, Path]) -> Dict[str, Any]:
    """Recompute the oracle verdict for a drill directory's artifacts.

    Pure: reads artifacts, mutates nothing.  Shared by ``chaos run``
    (which then stamps the verdict into the manifest) and ``chaos
    verify`` (which also cross-checks the stamped verdict).
    """
    chaos_dir = Path(chaos_dir)
    manifest = _load_manifest(chaos_dir)
    config = ChaosConfig.from_dict(manifest["config"])
    if config.scenario == "campaign":
        return _evaluate_campaign(chaos_dir, config, manifest)
    if config.scenario == "fleet":
        return _evaluate_fleet(chaos_dir, config, manifest)
    return _evaluate_store(chaos_dir, config, manifest)


# ----------------------------------------------------------------------
# Entry points (the CLI's verbs)
# ----------------------------------------------------------------------

def run_drill(
    chaos_dir: Union[str, Path], config: Optional[ChaosConfig] = None
) -> Dict[str, Any]:
    """Run (or resume) one chaos drill; returns the verdict.

    A fresh directory needs ``config``; an existing one must either
    omit it or pass an identical one (a drill's identity is pinned at
    creation -- changing the schedule mid-drill would make the verdict
    meaningless).
    """
    chaos_dir = Path(chaos_dir)
    chaos_dir.mkdir(parents=True, exist_ok=True)
    if _manifest_path(chaos_dir).exists():
        manifest = _load_manifest(chaos_dir)
        stored = ChaosConfig.from_dict(manifest["config"])
        if config is not None and config != stored:
            raise ChaosError(
                f"{chaos_dir} already hosts a drill with a different "
                "config; use a fresh directory"
            )
        config = stored
    else:
        if config is None:
            raise ChaosError(
                f"no drill at {chaos_dir} and no config given"
            )
        manifest = _fresh_manifest(config)
        _save_manifest(chaos_dir, manifest)

    # Phase 1: the fault-free reference (resumable; skipped when done).
    _ensure_clean(chaos_dir, config)

    # Phase 2: the faulted drill (resumable via manifest progress).
    if config.scenario == "campaign":
        _drill_campaign(chaos_dir, config, manifest)
    elif config.scenario == "fleet":
        _drill_fleet(chaos_dir, config, manifest)
    else:
        _drill_store(chaos_dir, config, manifest)

    # Phase 3: the oracle.
    verdict = evaluate_drill(chaos_dir)
    manifest["status"] = verdict["status"]
    manifest["verdict"] = verdict
    _save_manifest(chaos_dir, manifest)
    obs_event(
        "warning" if verdict["status"] not in OK_STATUSES else "info",
        "chaos.drill_completed",
        scenario=config.scenario, status=verdict["status"],
    )
    return verdict


def verify_drill(chaos_dir: Union[str, Path]) -> Dict[str, Any]:
    """Recompute a completed drill's verdict and cross-check the stamp.

    A stamped verdict that disagrees with what the artifacts now say
    is itself a failure -- either the manifest was tampered with or an
    artifact rotted after the run (the CI corruption fixture).
    """
    chaos_dir = Path(chaos_dir)
    manifest = _load_manifest(chaos_dir)
    verdict = evaluate_drill(chaos_dir)
    stored = manifest.get("verdict")
    if stored is not None:
        drifted = [
            field_name
            for field_name in ("status", "clean_sha256", "drill_sha256")
            if field_name in stored
            and stored.get(field_name) != verdict.get(field_name)
        ]
        if drifted:
            verdict = dict(verdict)
            verdict["status"] = FAIL
            verdict["reasons"] = list(verdict.get("reasons") or []) + [
                f"stamped verdict disagrees with recomputation on {drifted} "
                "(artifact changed after the drill completed)"
            ]
    return verdict
