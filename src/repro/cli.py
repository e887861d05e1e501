"""Command-line interface for the EcoCapsule reproduction library.

Subcommands mirror the operator workflows the paper describes::

    python -m repro.cli prism --concrete NC
    python -m repro.cli range --structure S3 --voltage 250
    python -m repro.cli shell --height 120
    python -m repro.cli survey --nodes 8 --length 8 --voltage 250
    python -m repro.cli pilot

plus the experiment runtime (registry + parallel runner + cache)::

    python -m repro.cli experiments list
    python -m repro.cli experiments run --all --jobs 4 --out results
    python -m repro.cli experiments run --only fig15 fig17 --force
    python -m repro.cli experiments run --only fig15 --obs -v
    python -m repro.cli experiments run --only fault_sweep --faults plan.json
    python -m repro.cli experiments validate results/<run_id>
    python -m repro.cli experiments stats results/<run_id>
    python -m repro.cli experiments trace results/<run_id> --out trace.json

and the crash-safe campaign runtime (checkpoint + resume + status)::

    python -m repro.cli campaign run --state-dir pilot --epochs 74
    python -m repro.cli campaign resume --state-dir pilot
    python -m repro.cli campaign status --state-dir pilot

and the supervised multi-building fleet runtime (shard + restart +
quarantine, byte-deterministic)::

    python -m repro.cli fleet run --fleet-dir city --buildings 16 \
        --workers 4 --store telemetry
    python -m repro.cli fleet resume --fleet-dir city
    python -m repro.cli fleet status --fleet-dir city

and the embedded telemetry store (ingest + rollups + query + HTTP)::

    python -m repro.cli campaign run --state-dir pilot --store telemetry
    python -m repro.cli store ingest --store telemetry pilot/result.json
    python -m repro.cli store compact --store telemetry
    python -m repro.cli store query --store telemetry --metric strain \
        --agg mean --resolution hourly --group-by wall
    python -m repro.cli store health --store telemetry --building campaign
    python -m repro.cli store stats --store telemetry
    python -m repro.cli store serve --store telemetry --port 8080

and the storage-fault chaos drills (recovered or loud, never silently
wrong)::

    python -m repro.cli chaos run --dir drills/c1 --scenario campaign \
        --enospc-write-rate 0.05 --torn-write-rate 0.05
    python -m repro.cli chaos verify --dir drills/c1
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path
from typing import List, Optional

from .acoustics import StructureGeometry, WavePrism, paper_structures
from .faults import FaultPlan, IoFaultPlan, WorkerFaultPlan
from .link import PlacedNode, PowerUpLink, WallSession, plan_stations
from .materials import PLA, get_concrete
from .node import EcoCapsule, Environment, resin_shell, steel_shell


def _cmd_prism(args: argparse.Namespace) -> int:
    concrete = get_concrete(args.concrete)
    prism = WavePrism(PLA, concrete.medium)
    low, high = prism.critical_angles
    best = prism.recommend_angle()
    print(f"Concrete: {concrete.name} (Cp {concrete.cp:.0f}, Cs {concrete.cs:.0f} m/s)")
    print(
        f"S-only window: [{math.degrees(low):.1f}, {math.degrees(high):.1f}] deg"
    )
    print(f"Recommended incident angle: {math.degrees(best):.1f} deg")
    quality = prism.injection_quality(best)
    print(f"Injected energy at the optimum: {quality.injected_energy:.0%}")
    return 0


def _resolve_structure(name: str) -> StructureGeometry:
    for structure in paper_structures():
        if structure.name.lower().startswith(name.lower()):
            return structure
    raise SystemExit(
        f"unknown structure {name!r}; options: "
        + ", ".join(s.name.split()[0] for s in paper_structures())
    )


def _cmd_range(args: argparse.Namespace) -> int:
    structure = _resolve_structure(args.structure)
    budget = PowerUpLink(structure)
    reach = budget.max_range(args.voltage)
    print(f"Structure: {structure.name} ({structure.thickness * 100:.0f} cm thick)")
    print(f"Max power-up range at {args.voltage:.0f} V: {reach:.2f} m")
    plan = plan_stations(budget, tx_voltage=args.voltage)
    print(
        f"Stations to cover {structure.length:.0f} m: {len(plan.stations)} "
        f"at positions " + ", ".join(f"{s.position:.1f} m" for s in plan.stations)
    )
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    for shell, label in ((resin_shell(), "SLA resin"), (steel_shell(), "alloy steel")):
        verdict = "OK" if shell.survives(args.height) else "FAILS"
        print(
            f"{label:12s} dP_max {shell.max_pressure / 1e6:6.1f} MPa  "
            f"h_max {shell.max_height():7.0f} m  at {args.height:.0f} m: {verdict}"
        )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    concrete = get_concrete(args.concrete)
    wall = StructureGeometry(
        "cli wall", length=args.length, thickness=args.thickness,
        medium=concrete.medium,
    )
    budget = PowerUpLink(wall)
    rng = random.Random(args.seed)
    nodes = [
        PlacedNode(
            capsule=EcoCapsule(
                node_id=i + 1,
                environment=Environment(
                    temperature=rng.uniform(18.0, 32.0),
                    humidity=rng.uniform(55.0, 90.0),
                    strain=rng.uniform(-200.0, 300.0),
                ),
                seed=args.seed + i,
            ),
            distance=rng.uniform(0.2, args.length * 0.4),
        )
        for i in range(args.nodes)
    ]
    session = WallSession(
        budget=budget, nodes=nodes, tx_voltage=args.voltage, seed=args.seed,
        faults=_load_plan(FaultPlan, args.faults, "survey --faults"),
    )
    result = session.run()
    print(
        f"Powered {len(result.powered_nodes)}/{args.nodes} nodes "
        f"({result.coverage:.0%}); session took {result.elapsed:.2f} s over "
        f"{result.slots_used} slots in {result.rounds_used} round(s)"
    )
    for node_id in sorted(result.reports):
        values = {r.channel: r.value for r in result.reports[node_id]}
        print(
            f"  node {node_id:2d}: "
            + "  ".join(f"{k}={v:.1f}" for k, v in sorted(values.items()))
        )
    if result.dark_nodes:
        print(f"  dark nodes (out of range): {result.dark_nodes}")
    if result.degraded:
        print(
            f"  DEGRADED: unheard nodes {result.unheard_nodes}"
            + (" (charging failed)" if result.charge_failed else "")
        )
    if result.retries or result.charge_attempts > 1:
        print(
            f"  recovery: {result.retries} command retries, "
            f"{result.charge_attempts} charge attempt(s), "
            f"{result.backoff_s:.2f} s backoff, {result.recharges} recharge(s)"
        )
    if result.fault_counts:
        faults = ", ".join(
            f"{k}={v}" for k, v in sorted(result.fault_counts.items())
        )
        print(f"  injected faults: {faults}")
    return 0


def _cmd_pilot(args: argparse.Namespace) -> int:
    from .experiments import fig21_pilot_study

    result = fig21_pilot_study.run(samples_per_hour=args.samples_per_hour)
    print("Pilot study (synthetic July 2021):")
    print(f"  storm detected in both channels: {result.storm_detected_in_both}")
    print(f"  sensors mutually verified: {result.sensors_mutually_verified}")
    print(
        f"  compliance: |a|max {result.compliance.max_abs_acceleration:.3f} m/s^2, "
        f"|s|max {result.compliance.max_abs_stress_mpa:.0f} MPa -> "
        f"{'OK' if result.compliance.compliant else 'VIOLATION'}"
    )
    grades = ", ".join(f"{g}: {f:.0%}" for g, f in result.grade_fractions.items())
    print(f"  bridge grades over the month: {grades}")
    for health in result.section_health:
        print(
            f"  section {health.section}: No.{health.pedestrians} "
            f"Health {health.grade} Speed {health.mean_speed:.1f} m/s"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .reporting import EXPORTERS, export_all

    figures = args.figures if args.figures else None
    written = export_all(args.directory, figures=figures, fmt=args.format)
    for path in written:
        print(f"wrote {path}")
    if not args.figures:
        print(f"({len(written)} figures: {', '.join(sorted(EXPORTERS))})")
    return 0


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    from .runtime import experiment_registry

    for spec in experiment_registry().values():
        quick = " [quick]" if spec.quick_params else ""
        print(f"{spec.name:22s} seed={spec.seed:<6d} {spec.title}{quick}")
    return 0


def _format_profile(profile) -> str:
    parts = [f"wall={profile['wall_s']:.3f}s", f"cpu={profile['cpu_s']:.3f}s"]
    if profile.get("max_rss_kb") is not None:
        parts.append(f"rss={profile['max_rss_kb'] / 1024.0:.1f}MB")
    if profile.get("py_alloc_peak_kb") is not None:
        parts.append(f"pyalloc={profile['py_alloc_peak_kb'] / 1024.0:.1f}MB")
    return " ".join(parts)


def _load_plan(cls, path: str, label: str):
    """The ``cls`` plan in the JSON file at ``path`` (None when unset).

    A file the plan class rejects -- unreadable, not JSON, the wrong
    shape or schema, an out-of-range rate -- exits 2 with one
    ``<label>: ...`` line, ``label`` naming the verb and its flag.
    """
    from .errors import FaultConfigError

    if not path:
        return None
    try:
        return cls.from_json_file(path)
    except FaultConfigError as exc:
        raise _usage_exit(f"{label}: {exc}")


def _fault_overrides(names, plan):
    """Per-experiment overrides injecting ``plan`` where it is accepted."""
    from .runtime import experiment_registry

    registry = experiment_registry()
    selected = list(registry) if names is None else names
    accepting = [
        name
        for name in selected
        if name in registry and "fault_plan" in registry[name].default_params
    ]
    if not accepting:
        raise SystemExit(
            "--faults: none of the selected experiments accept a fault_plan "
            "parameter (try --only fault_sweep)"
        )
    return {name: {"fault_plan": plan.to_dict()} for name in accepting}


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from .errors import RegistryError
    from .runtime import run_experiments

    if not args.all and not args.only:
        raise SystemExit("experiments run: pass --all or --only NAME [NAME ...]")
    names = None if args.all else args.only
    overrides = None
    plan = _load_plan(FaultPlan, args.faults, "experiments run --faults")
    if plan is not None:
        overrides = _fault_overrides(names, plan)
    try:
        report = run_experiments(
            names=names,
            jobs=args.jobs,
            out_dir=args.out,
            force=args.force,
            timeout_s=args.timeout,
            cache_dir=args.cache_dir,
            overrides=overrides,
            quick=args.quick,
            obs=args.obs,
            retries=args.retries,
        )
    except RegistryError as exc:
        raise _usage_exit(f"experiments run: {exc}")
    for outcome in report.outcomes:
        line = (
            f"{outcome.name:22s} {outcome.status:7s} cache={outcome.cache:6s} "
            f"{outcome.elapsed_s:6.2f}s"
        )
        if outcome.error:
            line += f"  {outcome.error.strip().splitlines()[-1]}"
        print(line)
        if args.verbose:
            detail = (
                f"{'':22s} seed={outcome.seed} "
                f"key={outcome.cache_key[:12]}"
            )
            if outcome.profile is not None:
                detail += f"  {_format_profile(outcome.profile)}"
            print(detail)
    totals = report.manifest["totals"]
    summary = (
        f"{totals['ok']}/{totals['experiments']} ok "
        f"({report.cache_hits} cache hit(s), {report.fresh_ok} fresh)"
    )
    if report.failures:
        summary += f", {report.failures} failed"
    if report.timeouts:
        summary += f", {report.timeouts} timed out"
    print(f"{summary}, {totals['elapsed_s']:.2f}s total")
    print(f"manifest: {report.run_dir / 'manifest.json'}")
    if args.obs:
        print(f"metrics:  {report.run_dir / 'metrics.json'}")
        print(f"trace:    {report.run_dir / 'trace.json'}")
    if report.interrupted:
        print("sweep interrupted (SIGINT/SIGTERM); partial manifest written")
        return 3
    return 0 if report.ok else 1


def _cmd_experiments_validate(args: argparse.Namespace) -> int:
    from .errors import ManifestError
    from .runtime import RESULT_SCHEMA, load_manifest, read_json

    try:
        manifest = load_manifest(args.run_dir)
    except ManifestError as exc:
        print(f"INVALID: {exc}")
        return 1
    problems = []
    run_dir = Path(args.run_dir)
    for entry in manifest["experiments"]:
        if entry["status"] != "ok":
            continue
        path = run_dir / entry["result_file"]
        try:
            payload = read_json(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{entry['name']}: unreadable result ({exc})")
            continue
        if payload.get("schema") != RESULT_SCHEMA:
            problems.append(f"{entry['name']}: wrong result schema")
        elif "result" not in payload:
            problems.append(f"{entry['name']}: result file has no result")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    totals = manifest["totals"]
    print(
        f"valid manifest: run {manifest['run_id']}, "
        f"{totals['ok']}/{totals['experiments']} ok, "
        f"{totals['cache_hits']} cache hit(s)"
    )
    return 0


def _load_obs_artifact(run_dir: Path, filename: str):
    """Read one obs export from a run directory, or None with a hint."""
    from .runtime import read_json

    path = run_dir / filename
    if not path.exists():
        print(
            f"no {filename} in {run_dir}; re-run the sweep with "
            "`experiments run --obs` to collect observability data"
        )
        return None
    try:
        return read_json(path)
    except (OSError, ValueError) as exc:
        print(f"INVALID: unreadable {filename}: {exc}")
        return None


def _cmd_experiments_stats(args: argparse.Namespace) -> int:
    import json as json_module

    from .obs import render_snapshot_text
    from .runtime import load_manifest
    from .errors import ManifestError

    run_dir = Path(args.run_dir)
    payload = _load_obs_artifact(run_dir, "metrics.json")
    if payload is None:
        return 1
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"metrics for run {payload.get('run_id', run_dir.name)}:")
    print(render_snapshot_text(payload), end="")
    events = payload.get("events", {})
    records = events.get("events", [])
    if records:
        print(f"events ({len(records)} recorded, {events.get('dropped', 0)} dropped):")
        for event in records:
            fields = " ".join(f"{k}={v}" for k, v in event["fields"].items())
            print(f"  [{event['level']}] {event['name']} {fields}")
    try:
        manifest = load_manifest(run_dir)
    except ManifestError:
        manifest = None
    if manifest is not None:
        profiled = [
            e for e in manifest["experiments"] if e.get("profile") is not None
        ]
        if profiled:
            print("per-experiment profiles:")
            for entry in profiled:
                print(
                    f"  {entry['name']:22s} {_format_profile(entry['profile'])}"
                )
    return 0


def _cmd_experiments_trace(args: argparse.Namespace) -> int:
    import json as json_module
    import shutil

    from .obs import validate_chrome_trace

    run_dir = Path(args.run_dir)
    trace = _load_obs_artifact(run_dir, "trace.json")
    if trace is None:
        return 1
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    events = trace["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") == "X")
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run_dir / "trace.json", out_path)
        print(f"wrote {out_path} ({spans} span(s))")
    else:
        print(
            f"valid chrome trace: {spans} span(s), "
            f"{len(events)} event(s) -- load {run_dir / 'trace.json'} "
            "in chrome://tracing or https://ui.perfetto.dev"
        )
        if args.json:
            print(json_module.dumps(trace, indent=2, sort_keys=True))
    return 0


def _campaign_hook(args: argparse.Namespace):
    """The (hidden) per-epoch delay the kill-and-resume tests use to stage
    mid-epoch kills."""
    sleep_s = getattr(args, "epoch_sleep_s", 0.0)
    if sleep_s <= 0.0:
        return None
    import time

    def hook(epoch: int) -> None:
        time.sleep(sleep_s)

    return hook


def _print_campaign_outcome(args: argparse.Namespace, outcome) -> int:
    if outcome.interrupted:
        print(
            f"interrupted by {outcome.signal_name or 'signal'} at epoch "
            f"{outcome.state.epoch}; checkpoint flushed"
        )
        print(
            f"continue with: python -m repro.cli campaign resume "
            f"--state-dir {args.state_dir}"
        )
        return 3
    result = outcome.result
    from .campaign import result_hash

    resumed = (
        f" (resumed from epoch {outcome.resumed_from_epoch})"
        if outcome.resumed_from_epoch
        else ""
    )
    print(f"campaign complete: {result.epochs_run} epoch(s){resumed}")
    print(
        f"storms: {result.storms_detected}/{len(result.storm_epochs)} "
        f"detected in both channels; mutual verification: "
        f"{'yes' if result.sensors_mutually_verified else 'NO'}"
    )
    grades = ", ".join(
        f"{g}={frac:.0%}" for g, frac in result.grade_fractions.items()
    )
    print(f"health grades: {grades}; compliant: "
          f"{'yes' if result.compliance.compliant else 'NO'}")
    if result.fault_totals:
        worst = sorted(
            result.fault_totals.items(), key=lambda kv: -kv[1]
        )[:4]
        print("top faults: " + ", ".join(f"{k}={v}" for k, v in worst))
    if result.timeouts:
        print(f"watchdog timeouts at epoch(s): {result.timeouts}")
    print(f"result sha256: {result_hash(result)}")
    if outcome.result_file is not None:
        print(f"result file:   {outcome.result_file}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CHECKPOINT_DIRNAME, CheckpointStore, run_campaign

    if args.state_dir:
        store = CheckpointStore(Path(args.state_dir) / CHECKPOINT_DIRNAME)
        if store.latest_epoch() is not None:
            raise SystemExit(
                f"{args.state_dir} already holds a campaign (checkpoint at "
                f"epoch {store.latest_epoch()}); use `campaign resume`, or "
                "point --state-dir at a fresh directory"
            )
    config = _campaign_config(args, "campaign run", seed=args.seed)
    outcome = _with_obs(
        args, "campaign", lambda: run_campaign(
            config, state_dir=args.state_dir or None,
            epoch_hook=_campaign_hook(args),
            store_dir=args.store or None,
            record_obs=bool(args.obs and args.store),
        )
    )
    return _print_campaign_outcome(args, outcome)


def _campaign_config(args: argparse.Namespace, verb: str, **fields):
    """The CampaignConfig the shared campaign flags describe.

    A value the config rejects exits 2 with one ``<verb>: ...`` line.
    """
    from .campaign import DEFAULT_CAMPAIGN_FAULTS, CampaignConfig
    from .errors import CampaignError

    faults = None if args.no_faults else dict(DEFAULT_CAMPAIGN_FAULTS)
    try:
        return CampaignConfig(
            epochs=args.epochs,
            nodes=args.nodes,
            wall_length=args.wall_length,
            tx_voltage=args.tx_voltage,
            hours_per_epoch=args.hours_per_epoch,
            samples_per_hour=args.samples_per_hour,
            fault_rates=faults,
            fault_intensity=args.fault_intensity,
            storm_period_epochs=args.storm_period,
            storm_duration_epochs=args.storm_duration,
            storm_fault_intensity=args.storm_intensity,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_keep=args.checkpoint_keep,
            epoch_timeout_s=args.epoch_timeout_s,
            **fields,
        )
    except CampaignError as exc:
        raise _usage_exit(f"{verb}: {exc}")


def _with_obs(args: argparse.Namespace, label: str, runner):
    """Run ``runner()`` under optional --obs instrumentation."""
    from .obs import activate_obs, obs_registry, render_snapshot_text, restore_obs

    scope = activate_obs(process_label=label) if args.obs else None
    try:
        return runner()
    finally:
        if scope is not None:
            print(f"{label} metrics:")
            print(render_snapshot_text(obs_registry().snapshot()), end="")
            restore_obs(scope)


def _usage_exit(message: str) -> SystemExit:
    """One-line operator error on stderr, exit code 2 (not a traceback)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _require_campaign_dir(state_dir: str, verb: str) -> None:
    """Exit 2 unless ``state_dir`` actually hosts a campaign."""
    from .campaign import CHECKPOINT_DIRNAME, EPOCH_LOG_FILENAME

    path = Path(state_dir)
    if not path.is_dir():
        raise _usage_exit(
            f"campaign {verb}: no such directory: {state_dir}"
        )
    markers = (CHECKPOINT_DIRNAME, EPOCH_LOG_FILENAME, "result.json")
    if not any((path / marker).exists() for marker in markers):
        raise _usage_exit(
            f"campaign {verb}: {state_dir} holds no campaign "
            f"(expected {CHECKPOINT_DIRNAME}/, {EPOCH_LOG_FILENAME} "
            f"or result.json)"
        )


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import resume_campaign
    from .errors import CampaignError

    _require_campaign_dir(args.state_dir, "resume")
    try:
        outcome = _with_obs(
            args, "campaign", lambda: resume_campaign(
                args.state_dir, epoch_hook=_campaign_hook(args),
                store_dir=args.store or None,
                record_obs=bool(args.obs and args.store),
            )
        )
    except CampaignError as exc:
        raise _usage_exit(f"campaign resume: {exc}")
    return _print_campaign_outcome(args, outcome)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json as json_module

    from .campaign import campaign_status

    _require_campaign_dir(args.state_dir, "status")
    status = campaign_status(args.state_dir)
    if args.json:
        print(json_module.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"campaign state in {status['state_dir']}:")
    if status["latest_checkpoint_epoch"] is None:
        print("  no checkpoints (nothing to resume)")
    else:
        print(f"  latest checkpoint epoch: {status['latest_checkpoint_epoch']}")
    if "verified_epoch" in status:
        total = status.get("epochs_total")
        print(
            f"  verified resume point:   epoch {status['verified_epoch']}"
            + (f" of {total}" if total else "")
        )
        if status.get("timeouts"):
            print(f"  watchdog timeouts:       {status['timeouts']}")
    if "checkpoint_error" in status:
        print(f"  CHECKPOINT ERROR: {status['checkpoint_error']}")
    print(f"  epoch log records:       {status['log_records']}")
    if status["last_epoch_wall_s"] is not None:
        print(f"  last epoch wall time:    {status['last_epoch_wall_s']:.3f} s")
    print(f"  degraded epochs (log):   {status['degraded_epochs']}")
    if status["epoch_timeouts"]:
        print(f"  watchdog timeouts (log): {status['epoch_timeouts']}")
    print(f"  TDMA retries (log):      {status['total_retries']}")
    if status["quarantined"]:
        print(
            f"  quarantined checkpoints: {len(status['quarantined'])} "
            f"({', '.join(status['quarantined'])})"
        )
    print(f"  complete: {'yes' if status['complete'] else 'no'}")
    return 1 if "checkpoint_error" in status else 0


def _print_fleet_outcome(args: argparse.Namespace, outcome) -> int:
    if outcome.interrupted:
        print(
            f"fleet interrupted by {outcome.signal_name or 'signal'}; "
            f"manifest + shard checkpoints flushed"
        )
        print(
            f"continue with: python -m repro.cli fleet resume "
            f"--fleet-dir {args.fleet_dir}"
        )
        return 3
    totals = outcome.result["totals"]
    print(
        f"fleet complete: {totals['completed']}/{totals['buildings']} "
        f"building(s), {totals['epochs_run']} epoch(s) total "
        f"in {outcome.wall_s:.1f} s"
    )
    if outcome.quarantined:
        for building, reason in sorted(outcome.quarantined.items()):
            print(f"  QUARANTINED {building}: {reason}")
    if totals["degraded_epochs"] or totals["epoch_timeouts"]:
        print(
            f"  degraded epochs: {totals['degraded_epochs']}; "
            f"watchdog timeouts: {totals['epoch_timeouts']}"
        )
    print(f"result sha256: {outcome.sha256}")
    if outcome.result_file is not None:
        print(f"result file:   {outcome.result_file}")
    return 4 if outcome.quarantined else 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .errors import FleetError
    from .fleet import FleetConfig, building_names, run_fleet

    template = _campaign_config(args, "fleet run")
    worker_faults = _load_plan(
        WorkerFaultPlan, args.worker_faults, "fleet run --worker-faults"
    )
    try:
        config = FleetConfig(
            buildings=building_names(args.buildings),
            campaign=template,
            seed=args.seed,
            workers=args.workers,
            max_restarts=args.max_restarts,
            heartbeat_timeout_s=args.heartbeat_timeout_s,
            backoff_base_s=args.backoff_base_s,
            backoff_max_s=args.backoff_max_s,
        )
        outcome = _with_obs(
            args, "fleet", lambda: run_fleet(
                config,
                args.fleet_dir,
                store_dir=args.store or None,
                worker_faults=worker_faults,
                epoch_sleep_s=args.epoch_sleep_s,
                record_obs=bool(args.obs and args.store),
            )
        )
    except FleetError as exc:
        raise _usage_exit(f"fleet run: {exc}")
    return _print_fleet_outcome(args, outcome)


def _cmd_fleet_resume(args: argparse.Namespace) -> int:
    from .errors import FleetError
    from .fleet import resume_fleet

    try:
        outcome = _with_obs(
            args, "fleet", lambda: resume_fleet(
                args.fleet_dir,
                store_dir=args.store or None,
                epoch_sleep_s=args.epoch_sleep_s,
                record_obs=bool(args.obs and args.store),
            )
        )
    except FleetError as exc:
        raise _usage_exit(f"fleet resume: {exc}")
    return _print_fleet_outcome(args, outcome)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import FleetError
    from .fleet import fleet_status

    try:
        status = fleet_status(args.fleet_dir)
    except FleetError as exc:
        raise _usage_exit(f"fleet status: {exc}")
    if args.json:
        print(json_module.dumps(status, indent=2, sort_keys=True))
        return 0
    summary = status["summary"]
    print(
        f"fleet in {status['fleet_dir']}: {status['buildings']} building(s) "
        f"on {status['workers']} worker(s)"
    )
    print(
        f"  healthy: {summary['healthy']}  recovering: "
        f"{summary['recovering']}  quarantined: {summary['quarantined']}"
    )
    for building, shard in sorted(status["shards"].items()):
        checkpoint = (
            f"epoch {shard['checkpoint_epoch']}/{shard['epochs_total']}"
            if shard["checkpoint_epoch"] is not None
            else "no checkpoint"
        )
        detail = f"  {building}: {shard['status']:<11s} {checkpoint}"
        if shard["failures_total"]:
            detail += f", {shard['failures_total']} failure(s)"
        if shard["heartbeat_age_s"] is not None:
            detail += f", heartbeat {shard['heartbeat_age_s']:.1f}s ago"
        print(detail)
        if shard["quarantine_reason"]:
            print(f"      reason: {shard['quarantine_reason']}")
    supervision = status["supervision"]
    if supervision:
        print(
            f"  supervision: {supervision.get('workers_spawned', 0)} "
            f"spawn(s), {supervision.get('restarts', 0)} restart(s), "
            f"{supervision.get('heartbeat_kills', 0)} heartbeat kill(s)"
        )
    if status["complete"]:
        print(f"  complete: yes (result sha256 {status['result_sha256']})")
    else:
        print(
            "  complete: no"
            + (" (interrupted)" if status["interrupted"] else "")
        )
    return 0


def _open_store(args: argparse.Namespace, create: bool = False):
    """Open the --store directory, exiting cleanly on store errors."""
    from .errors import StoreError
    from .store import TelemetryStore

    try:
        return TelemetryStore(args.store, create=create)
    except StoreError as exc:
        raise _usage_exit(f"store: {exc}")


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from .errors import StoreError
    from .store import ingest_campaign_result

    store = _open_store(args, create=True)
    try:
        with store.writer() as writer:
            rows = ingest_campaign_result(
                writer, args.result, building=args.building, wall=args.wall
            )
    except StoreError as exc:
        raise SystemExit(f"store ingest: {exc}")
    print(f"ingested {rows} sample(s) from {args.result} into {args.store}")
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    store = _open_store(args)
    summary = store.compact()
    rollups = ", ".join(
        f"{res}={rows}" for res, rows in summary["rollup_rows"].items()
    )
    print(
        f"compacted {summary['series']} series: {summary['raw_rows']} raw "
        f"row(s) -> {rollups}"
    )
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import StoreError
    from .store import QueryEngine

    engine = QueryEngine(_open_store(args))
    try:
        payload = engine.aggregate(
            metric=args.metric,
            agg=args.agg,
            building=args.building,
            wall=args.wall,
            node_id=args.node,
            t0=args.t0,
            t1=args.t1,
            resolution=args.resolution,
            group_by=args.group_by,
        )
    except StoreError as exc:
        raise SystemExit(f"store query: {exc}")
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    header = (
        f"{payload['agg']}({payload['metric']}) over {payload['series']} "
        f"series at {payload['resolution']} resolution"
    )
    print(header)
    if "groups" in payload:
        for label, value in payload["groups"].items():
            rendered = "no data" if value is None else f"{value:.6g}"
            print(f"  {label}: {rendered}")
    else:
        value = payload["value"]
        print(f"  {'no data' if value is None else f'{value:.6g}'}")
    return 0


def _cmd_store_health(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import ReproError
    from .store import QueryEngine

    engine = QueryEngine(_open_store(args))
    try:
        report = engine.degradation_report(
            args.building,
            t0=args.t0,
            t1=args.t1,
            stale_hours=args.stale_hours,
        )
    except ReproError as exc:
        raise SystemExit(f"store health: {exc}")
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"building {report['name']}: grade {report['grade']}")
    for wall in report["walls"]:
        print(
            f"  wall {wall['wall']}: {wall['grade']} "
            f"({wall['reachability']:.0%} reachable, "
            f"{len(wall['capsules'])} capsule(s))"
        )
    if report["degraded_walls"]:
        print(f"  DEGRADED: {', '.join(report['degraded_walls'])}")
    for status in report["attention"]:
        drift = (
            f", drift {status['alarm']['drift_estimate']:.2f} ue/day"
            if status["alarm"]
            else ""
        )
        print(
            f"  attention: node {status['node_id']} on {status['wall']} "
            f"({status['grade']}{drift})"
        )
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json as json_module

    stats = _open_store(args).stats()
    if args.json:
        print(json_module.dumps(stats, indent=2, sort_keys=True))
        return 0
    totals = stats["totals"]
    print(f"store {stats['root']}: {stats['series_count']} series")
    for res, info in totals.items():
        print(
            f"  {res:7s} {info['rows']:>10d} row(s) in {info['blocks']} "
            f"block(s), {info['bytes']} bytes"
        )
    if stats["quarantined"]:
        print(f"  QUARANTINED segments: {', '.join(stats['quarantined'])}")
    for entry in stats["series"]:
        key = entry["key"]
        label = (
            f"{key['building']}/{key['wall']}/n{key['node_id']}/"
            f"{key['metric']}"
        )
        print(
            f"  {label}: {entry['raw']['rows']} raw, "
            f"{entry['hourly']['rows']} hourly, {entry['daily']['rows']} daily"
        )
    return 0


def _cmd_store_serve(args: argparse.Namespace) -> int:
    import time as time_module

    from .errors import StoreError
    from .serve import AsyncGateway, run_gateway

    store = _open_store(args)
    try:
        gateway = AsyncGateway(
            store, host=args.host, port=args.port,
            workers=args.workers, max_queue=args.max_queue,
            cache_entries=args.cache_entries,
        )
    except StoreError as exc:
        raise _usage_exit(f"store serve: {exc}")
    recorder = None

    def on_ready(gw: "AsyncGateway") -> None:
        nonlocal recorder
        if args.self_record > 0.0:
            from .obs.pipeline import MetricsRecorder

            recorder = MetricsRecorder(
                store, source="serve", registry=gw.registry,
                clock=lambda: time_module.time() / 3600.0,
            ).start(interval_s=args.self_record)
        # The port line is machine-read by CI and tests (ephemeral
        # --port 0); keep it first and flush before blocking.
        print(
            f"serving {args.store} on http://{args.host}:{gw.port}",
            flush=True,
        )
        print(
            "endpoints: /series /aggregate /health /stats /metrics /healthz"
            "  (Ctrl-C to stop)"
        )
        if args.self_record > 0.0:
            print(
                f"self-recording serve metrics into _obs/serve every "
                f"{args.self_record:g} s"
            )
        print(
            f"gateway: {args.workers} worker(s), queue depth "
            f"{args.max_queue}, {args.cache_entries} cache entries"
        )

    try:
        run_gateway(gateway, ready=on_ready)
    except KeyboardInterrupt:
        pass
    except (OSError, OverflowError) as exc:
        # Raised while binding, before anything is served: a busy
        # port, an unresolvable --host or a port past 65535.
        raise _usage_exit(
            f"store serve: cannot listen on {args.host}:{args.port}: {exc}"
        )
    finally:
        if recorder is not None:
            recorder.stop()
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import ObsError
    from .obs.report import build_report, render_report_markdown

    try:
        report = build_report(_open_store(args))
    except ObsError as exc:
        raise SystemExit(f"obs report: {exc}")
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report_markdown(report), end="")
    return 0


def _cmd_obs_trend(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import ObsError
    from .obs.trend import (
        BENCH_METRICS,
        evaluate,
        load_bench,
        load_history,
        record_history,
        render_trend_text,
    )

    tracked = sorted({spec["file"] for spec in BENCH_METRICS.values()})
    if not any((Path(args.bench_dir) / name).is_file() for name in tracked):
        raise _usage_exit(
            f"obs trend: {args.bench_dir} holds none of {', '.join(tracked)}"
        )
    try:
        readings = load_bench(args.bench_dir)
        history = load_history(args.history)
        verdicts = evaluate(readings, history, tolerance=args.tolerance)
        if args.record:
            record_history(args.history, readings)
    except ObsError as exc:
        raise SystemExit(f"obs trend: {exc}")
    regressed = [v for v in verdicts if v["verdict"] == "regress"]
    if args.json:
        print(json_module.dumps(
            {"verdicts": verdicts, "regressed": len(regressed)},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"bench trends vs {args.history} "
              f"(tolerance {args.tolerance:.0%}):")
        print(render_trend_text(verdicts))
        print(
            f"{len(regressed)} regression(s)" if regressed
            else "no regressions"
        )
    return 1 if regressed else 0


#: ``chaos`` exit codes by verdict status: recovered outcomes succeed,
#: a loud failure is distinguishable from a silent one.
_CHAOS_EXIT_CODES = {"pass": 0, "degraded": 0, "loud": 4, "fail": 1}


def _chaos_plan(args: argparse.Namespace):
    """The ``--plan`` file (or the inactive plan), flags overriding fields."""
    import dataclasses

    plan = _load_plan(IoFaultPlan, args.plan, "chaos run --plan")
    plan = plan or IoFaultPlan()
    overrides = {
        name: getattr(args, name)
        for name in IoFaultPlan.probabilities()
        if getattr(args, name) is not None
    }
    if args.fault_seed is not None:
        overrides["seed"] = args.fault_seed
    return dataclasses.replace(plan, **overrides) if overrides else plan


def _print_chaos_verdict(args: argparse.Namespace, verdict) -> int:
    import json as json_module

    if args.json:
        print(json_module.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(f"chaos {verdict['scenario']}: {verdict['status'].upper()}")
        for reason in verdict.get("reasons", []):
            print(f"  - {reason}")
        fired = {k: v for k, v in (verdict.get("io") or {}).items() if v}
        if fired:
            print("  faults fired: " + ", ".join(
                f"{k}={v}" for k, v in sorted(fired.items())
            ))
        if verdict.get("drill_sha256"):
            print(f"  sha256: {verdict['drill_sha256'][:16]}… "
                  f"(clean {str(verdict.get('clean_sha256'))[:16]}…)")
    return _CHAOS_EXIT_CODES.get(verdict["status"], 1)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .errors import ChaosError, FaultConfigError
    from .faults.chaos import ChaosConfig, run_drill

    try:
        config = ChaosConfig(
            scenario=args.scenario,
            seed=args.seed,
            epochs=args.epochs,
            nodes=args.nodes,
            hours_per_epoch=args.hours_per_epoch,
            buildings=args.buildings,
            batches=args.batches,
            rows_per_batch=args.rows_per_batch,
            max_attempts=args.max_attempts,
            plan=_chaos_plan(args),
        )
    except (ChaosError, FaultConfigError) as exc:
        raise _usage_exit(f"chaos run: {exc}")
    try:
        verdict = run_drill(args.dir, config)
    except (ChaosError, FaultConfigError, OSError) as exc:
        raise SystemExit(f"chaos run: {exc}")
    return _print_chaos_verdict(args, verdict)


def _cmd_chaos_verify(args: argparse.Namespace) -> int:
    from .errors import ChaosError
    from .faults.chaos import verify_drill

    try:
        verdict = verify_drill(args.dir)
    except ChaosError as exc:
        raise SystemExit(f"chaos verify: {exc}")
    return _print_chaos_verdict(args, verdict)


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The per-building campaign flags `campaign run` and `fleet run` share."""
    parser.add_argument("--epochs", type=int, default=74,
                        help="weekly visits to simulate (74 = 17 months)")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--wall-length", type=float, default=8.0)
    parser.add_argument("--tx-voltage", type=float, default=250.0)
    parser.add_argument("--hours-per-epoch", type=int, default=168)
    parser.add_argument("--samples-per-hour", type=int, default=1)
    parser.add_argument("--no-faults", action="store_true",
                        help="disable fault injection entirely")
    parser.add_argument("--fault-intensity", type=float, default=1.0)
    parser.add_argument("--storm-period", type=int, default=26,
                        help="epochs between storm windows")
    parser.add_argument("--storm-duration", type=int, default=2)
    parser.add_argument("--storm-intensity", type=float, default=3.0,
                        help="fault multiplier during storm epochs")
    parser.add_argument("--checkpoint-interval", type=int, default=1)
    parser.add_argument("--checkpoint-keep", type=int, default=5)
    parser.add_argument("--epoch-timeout-s", type=float, default=120.0,
                        help="watchdog bound per epoch (<=0 disables)")
    parser.add_argument("--epoch-sleep-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)  # CI kill-timing seam


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EcoCapsule reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prism = sub.add_parser("prism", help="design the wave prism for a concrete")
    prism.add_argument("--concrete", default="NC", help="NC, UHPC or UHPFRC")
    prism.set_defaults(func=_cmd_prism)

    rng = sub.add_parser("range", help="power-up range for a paper structure")
    rng.add_argument("--structure", default="S3", help="S1, S2, S3 or S4")
    rng.add_argument("--voltage", type=float, default=250.0)
    rng.set_defaults(func=_cmd_range)

    shell = sub.add_parser("shell", help="shell limits vs building height")
    shell.add_argument("--height", type=float, default=120.0, help="metres")
    shell.set_defaults(func=_cmd_shell)

    survey = sub.add_parser("survey", help="simulate a wall survey session")
    survey.add_argument("--nodes", type=int, default=6)
    survey.add_argument("--length", type=float, default=8.0)
    survey.add_argument("--thickness", type=float, default=0.20)
    survey.add_argument("--concrete", default="UHPC")
    survey.add_argument("--voltage", type=float, default=250.0)
    survey.add_argument("--seed", type=int, default=7)
    survey.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="run the survey under a fault plan (see docs/ROBUSTNESS.md)",
    )
    survey.set_defaults(func=_cmd_survey)

    pilot = sub.add_parser("pilot", help="run the footbridge pilot analytics")
    pilot.add_argument("--samples-per-hour", type=int, default=6)
    pilot.set_defaults(func=_cmd_pilot)

    export = sub.add_parser(
        "export", help="export figure data as CSV/JSON for plotting"
    )
    export.add_argument("--directory", default="figures")
    export.add_argument("--format", choices=("csv", "json"), default="csv")
    export.add_argument(
        "--figures", nargs="*", help="figure ids (default: all tabular figures)"
    )
    export.set_defaults(func=_cmd_export)

    experiments = sub.add_parser(
        "experiments", help="run the paper experiments through the runtime"
    )
    exp_sub = experiments.add_subparsers(dest="experiments_command", required=True)

    exp_list = exp_sub.add_parser("list", help="list registered experiments")
    exp_list.set_defaults(func=_cmd_experiments_list)

    exp_run = exp_sub.add_parser(
        "run", help="run experiments in parallel with result caching"
    )
    exp_run.add_argument("--all", action="store_true", help="run every experiment")
    exp_run.add_argument(
        "--only", nargs="+", metavar="NAME", help="registry ids to run"
    )
    exp_run.add_argument("--jobs", type=int, default=2, help="worker processes")
    exp_run.add_argument("--out", default="results", help="results directory")
    exp_run.add_argument(
        "--force", action="store_true", help="bypass the result cache"
    )
    exp_run.add_argument(
        "--quick", action="store_true",
        help="use the reduced (still seeded) CI parameters",
    )
    exp_run.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-experiment timeout in seconds",
    )
    exp_run.add_argument(
        "--cache-dir", default=None, help="cache location (default <out>/.cache)"
    )
    exp_run.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="fault-plan JSON injected into experiments that accept a "
        "fault_plan parameter (see docs/ROBUSTNESS.md)",
    )
    exp_run.add_argument(
        "--retries", type=int, default=0,
        help="re-run failed/timed-out experiments up to N extra times "
        "with exponential backoff",
    )
    exp_run.add_argument(
        "--obs",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="collect metrics, trace spans and per-experiment profiles "
        "(--no-obs, the default, runs the no-op instrumentation path)",
    )
    exp_run.add_argument(
        "-v", "--verbose", action="store_true",
        help="per-experiment detail: seed, cache key, profile",
    )
    exp_run.set_defaults(func=_cmd_experiments_run)

    exp_validate = exp_sub.add_parser(
        "validate", help="validate a run directory's manifest and results"
    )
    exp_validate.add_argument("run_dir", help="results/<run_id> directory")
    exp_validate.set_defaults(func=_cmd_experiments_validate)

    exp_stats = exp_sub.add_parser(
        "stats", help="print the metrics collected by a --obs run"
    )
    exp_stats.add_argument("run_dir", help="results/<run_id> directory")
    exp_stats.add_argument(
        "--json", action="store_true", help="dump the raw metrics.json payload"
    )
    exp_stats.set_defaults(func=_cmd_experiments_stats)

    exp_trace = exp_sub.add_parser(
        "trace", help="validate/export the Chrome trace from a --obs run"
    )
    exp_trace.add_argument("run_dir", help="results/<run_id> directory")
    exp_trace.add_argument(
        "--out", default=None, help="copy the trace JSON to this path"
    )
    exp_trace.add_argument(
        "--json", action="store_true", help="print the trace JSON to stdout"
    )
    exp_trace.set_defaults(func=_cmd_experiments_trace)

    campaign = sub.add_parser(
        "campaign",
        help="run the checkpointed multi-month pilot (crash-safe, resumable)",
    )
    camp_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    camp_run = camp_sub.add_parser(
        "run", help="start a campaign (checkpointed when --state-dir is set)"
    )
    camp_run.add_argument(
        "--state-dir", default="",
        help="directory for checkpoints/log/result (empty = in-memory)",
    )
    camp_run.add_argument("--seed", type=int, default=2021)
    _add_campaign_flags(camp_run)
    camp_run.add_argument("--obs", action="store_true",
                          help="collect campaign.* metrics and print them")
    camp_run.add_argument(
        "--store", default="", metavar="DIR",
        help="export every epoch's telemetry into this store directory",
    )
    camp_run.set_defaults(func=_cmd_campaign_run)

    camp_resume = camp_sub.add_parser(
        "resume", help="continue a killed campaign from its last checkpoint"
    )
    camp_resume.add_argument("--state-dir", required=True)
    camp_resume.add_argument("--obs", action="store_true")
    camp_resume.add_argument(
        "--store", default="", metavar="DIR",
        help="telemetry store to continue exporting into (replayed "
        "epochs' earlier exports are truncated first)",
    )
    camp_resume.add_argument("--epoch-sleep-s", type=float, default=0.0,
                             help=argparse.SUPPRESS)
    camp_resume.set_defaults(func=_cmd_campaign_resume)

    camp_status = camp_sub.add_parser(
        "status", help="inspect a campaign directory without mutating it"
    )
    camp_status.add_argument("--state-dir", required=True)
    camp_status.add_argument("--json", action="store_true")
    camp_status.set_defaults(func=_cmd_campaign_status)

    fleet = sub.add_parser(
        "fleet",
        help="supervise a sharded multi-building campaign fleet "
        "(crash isolation, quarantine, deterministic completion)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fl_run = fleet_sub.add_parser(
        "run",
        help="start a fleet: N buildings sharded over a worker pool "
        "(exit 0 clean, 4 completed-with-quarantines, 3 interrupted)",
    )
    fl_run.add_argument(
        "--fleet-dir", required=True,
        help="directory for the manifest, shard state and fleet result",
    )
    fl_run.add_argument("--buildings", type=int, default=4,
                        help="number of buildings (named b001..bNNN)")
    fl_run.add_argument("--workers", type=int, default=4,
                        help="max concurrent shard workers")
    fl_run.add_argument("--seed", type=int, default=2021,
                        help="fleet seed; per-building seeds derive from it")
    fl_run.add_argument("--max-restarts", type=int, default=3,
                        help="consecutive failures before quarantine")
    fl_run.add_argument("--heartbeat-timeout-s", type=float, default=30.0,
                        help="kill a worker whose heartbeat is older "
                        "(<=0 disables the liveness watchdog)")
    fl_run.add_argument("--backoff-base-s", type=float, default=0.25)
    fl_run.add_argument("--backoff-max-s", type=float, default=5.0)
    fl_run.add_argument(
        "--worker-faults", default="", metavar="PLAN.JSON",
        help="inject worker-level kill/hang/poison faults "
        "(see docs/FLEET.md)",
    )
    # Campaign template (per-building; seeds are derived, not set here).
    _add_campaign_flags(fl_run)
    fl_run.add_argument(
        "--store", default="", metavar="DIR",
        help="shared telemetry store; each building gets its own "
        "locked partition",
    )
    fl_run.add_argument("--obs", action="store_true",
                        help="collect fleet.* metrics and print them")
    fl_run.set_defaults(func=_cmd_fleet_run)

    fl_resume = fleet_sub.add_parser(
        "resume",
        help="continue a killed fleet from its manifest and checkpoints",
    )
    fl_resume.add_argument("--fleet-dir", required=True)
    fl_resume.add_argument(
        "--store", default="", metavar="DIR",
        help="override the store recorded in the manifest",
    )
    fl_resume.add_argument("--obs", action="store_true")
    fl_resume.add_argument("--epoch-sleep-s", type=float, default=0.0,
                           help=argparse.SUPPRESS)
    fl_resume.set_defaults(func=_cmd_fleet_resume)

    fl_status = fleet_sub.add_parser(
        "status",
        help="health of every shard (healthy/recovering/quarantined)",
    )
    fl_status.add_argument("--fleet-dir", required=True)
    fl_status.add_argument("--json", action="store_true")
    fl_status.set_defaults(func=_cmd_fleet_status)

    store = sub.add_parser(
        "store",
        help="the embedded telemetry store (ingest, rollups, query, HTTP)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_dir(p):
        p.add_argument("--store", required=True, metavar="DIR",
                       help="telemetry store directory")

    st_ingest = store_sub.add_parser(
        "ingest", help="ingest a campaign result.json into a store"
    )
    _store_dir(st_ingest)
    st_ingest.add_argument("result", help="path to a campaign result.json")
    st_ingest.add_argument("--building", default="campaign")
    st_ingest.add_argument("--wall", default="pilot")
    st_ingest.set_defaults(func=_cmd_store_ingest)

    st_compact = store_sub.add_parser(
        "compact", help="regenerate hourly/daily rollups from raw samples"
    )
    _store_dir(st_compact)
    st_compact.set_defaults(func=_cmd_store_compact)

    st_query = store_sub.add_parser(
        "query", help="aggregate one metric over matching series"
    )
    _store_dir(st_query)
    st_query.add_argument("--metric", required=True)
    st_query.add_argument(
        "--agg", default="mean",
        choices=("count", "min", "max", "mean", "sum"),
    )
    st_query.add_argument("--building", default=None)
    st_query.add_argument("--wall", default=None)
    st_query.add_argument("--node", type=int, default=None)
    st_query.add_argument("--t0", type=float, default=None, help="hours")
    st_query.add_argument("--t1", type=float, default=None, help="hours")
    st_query.add_argument(
        "--resolution", default="raw", choices=("raw", "hourly", "daily")
    )
    st_query.add_argument("--group-by", default=None, choices=("node", "wall"))
    st_query.add_argument("--json", action="store_true")
    st_query.set_defaults(func=_cmd_store_query)

    st_health = store_sub.add_parser(
        "health", help="building health / degraded walls from stored strain"
    )
    _store_dir(st_health)
    st_health.add_argument("--building", required=True)
    st_health.add_argument("--t0", type=float, default=None, help="hours")
    st_health.add_argument("--t1", type=float, default=None, help="hours")
    st_health.add_argument(
        "--stale-hours", type=float, default=None,
        help="capsules lagging the newest sample by more are unreachable",
    )
    st_health.add_argument("--json", action="store_true")
    st_health.set_defaults(func=_cmd_store_health)

    st_stats = store_sub.add_parser(
        "stats", help="rows/bytes/blocks per series and resolution"
    )
    _store_dir(st_stats)
    st_stats.add_argument("--json", action="store_true")
    st_stats.set_defaults(func=_cmd_store_stats)

    st_serve = store_sub.add_parser(
        "serve", help="serve the store over JSON/HTTP"
    )
    _store_dir(st_serve)
    st_serve.add_argument("--host", default="127.0.0.1")
    st_serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    st_serve.add_argument(
        "--workers", type=int, default=8, metavar="N",
        help="size of the blocking-read worker pool",
    )
    st_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="max queued-or-executing requests before shedding with "
        "503 + Retry-After",
    )
    st_serve.add_argument(
        "--cache-entries", type=int, default=512, metavar="N",
        help="LRU capacity of the hot-rollup block cache",
    )
    st_serve.add_argument(
        "--self-record", type=float, default=0.0, metavar="SECONDS",
        help="record the server's own request metrics into the store's "
        "_obs/serve series at this cadence (0 disables)",
    )
    st_serve.set_defaults(func=_cmd_store_serve)

    obs = sub.add_parser(
        "obs",
        help="operational telemetry: health dossiers and bench trends",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report",
        help="summarize a store's _obs self-telemetry (markdown or JSON)",
    )
    obs_report.add_argument("--store", required=True, metavar="DIR",
                            help="telemetry store directory")
    obs_report.add_argument("--json", action="store_true")
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_trend = obs_sub.add_parser(
        "trend",
        help="gate BENCH_*.json readings against floors and history",
    )
    obs_trend.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json artifacts",
    )
    obs_trend.add_argument(
        "--history", default="BENCH_HISTORY.jsonl", metavar="FILE",
        help="append-only JSONL of past readings (the baseline)",
    )
    obs_trend.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative slide off the history baseline tolerated "
        "(default 0.25)",
    )
    obs_trend.add_argument(
        "--record", action="store_true",
        help="append the current non-smoke readings to the history",
    )
    obs_trend.add_argument("--json", action="store_true")
    obs_trend.set_defaults(func=_cmd_obs_trend)

    chaos = sub.add_parser(
        "chaos",
        help="storage-fault drills: prove recovered-or-loud under "
        "ENOSPC/EIO/torn-rename",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    ch_run = chaos_sub.add_parser(
        "run",
        help="run (or resume) a seeded fault drill and judge its oracle",
    )
    ch_run.add_argument("--dir", required=True, metavar="DIR",
                        help="drill directory (manifest + clean + drill)")
    ch_run.add_argument(
        "--scenario", default="campaign",
        choices=("campaign", "fleet", "store"),
    )
    ch_run.add_argument("--seed", type=int, default=2021,
                        help="workload seed (campaign/fleet/store data)")
    ch_run.add_argument("--epochs", type=int, default=4)
    ch_run.add_argument("--nodes", type=int, default=4)
    ch_run.add_argument("--hours-per-epoch", type=int, default=24)
    ch_run.add_argument("--buildings", type=int, default=3)
    ch_run.add_argument("--batches", type=int, default=6)
    ch_run.add_argument("--rows-per-batch", type=int, default=64)
    ch_run.add_argument(
        "--max-attempts", type=int, default=5,
        help="faulted attempts per work unit before giving up loudly",
    )
    ch_run.add_argument(
        "--plan", default="", metavar="FILE",
        help="repro/io-faults/v1 JSON fault plan (flags override fields)",
    )
    ch_run.add_argument("--fault-seed", type=int, default=None,
                        help="fault-schedule seed (default: plan's)")
    for name in IoFaultPlan.probabilities():
        ch_run.add_argument(
            f"--{name.replace('_', '-')}", type=float, default=None
        )
    ch_run.add_argument("--json", action="store_true")
    ch_run.set_defaults(func=_cmd_chaos_run)

    ch_verify = chaos_sub.add_parser(
        "verify",
        help="recompute a finished drill's verdict from its artifacts "
        "and cross-check the stamped one",
    )
    ch_verify.add_argument("--dir", required=True, metavar="DIR")
    ch_verify.add_argument("--json", action="store_true")
    ch_verify.set_defaults(func=_cmd_chaos_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
