"""Unit tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.cli
from repro.campaign import CampaignConfig
from repro.cli import build_parser, main
from repro.faults.chaos import ChaosConfig
from repro.faults.plan import options
from repro.fleet import (
    FLEET_MANIFEST_FILENAME,
    FLEET_MANIFEST_SCHEMA,
    FleetConfig,
    building_names,
)
from repro.store import TelemetryStore, ingest_series

REPO = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["prism"],
            ["range", "--structure", "S2"],
            ["shell", "--height", "50"],
            ["survey", "--nodes", "3"],
            ["pilot"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_prism(self, capsys):
        assert main(["prism", "--concrete", "UHPC"]) == 0
        out = capsys.readouterr().out
        assert "S-only window" in out
        assert "UHPC" in out

    def test_range(self, capsys):
        assert main(["range", "--structure", "S3", "--voltage", "200"]) == 0
        out = capsys.readouterr().out
        assert "Max power-up range" in out
        assert "Stations" in out

    def test_range_unknown_structure(self):
        with pytest.raises(SystemExit):
            main(["range", "--structure", "S9"])

    def test_shell(self, capsys):
        assert main(["shell", "--height", "100"]) == 0
        out = capsys.readouterr().out
        assert "SLA resin" in out
        assert "OK" in out

    def test_shell_too_tall_for_resin(self, capsys):
        main(["shell", "--height", "300"])
        out = capsys.readouterr().out
        assert "FAILS" in out  # resin gives up past ~195 m

    def test_survey(self, capsys):
        assert main(["survey", "--nodes", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Powered 3/3" in out
        assert "node  1" in out

    def test_pilot(self, capsys):
        assert main(["pilot", "--samples-per-hour", "2"]) == 0
        out = capsys.readouterr().out
        assert "storm detected in both channels: True" in out
        assert "section A" in out

    def test_export(self, capsys, tmp_path):
        assert main(
            ["export", "--directory", str(tmp_path), "--figures", "fig13"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig13.csv" in out
        assert (tmp_path / "fig13.csv").exists()


class TestExperimentsCommands:
    def test_experiments_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["experiments", "list"],
            ["experiments", "run", "--all", "--jobs", "4"],
            ["experiments", "run", "--only", "fig15", "--force", "--quick"],
            ["experiments", "validate", "some/run/dir"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_experiments_run_requires_a_selection(self):
        with pytest.raises(SystemExit):
            main(["experiments", "run"])

    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out
        assert "tables" in out
        assert "seed=" in out

    def test_experiments_run_only_then_validate(self, capsys, tmp_path):
        assert main(
            [
                "experiments",
                "run",
                "--only",
                "fig13",
                "tables",
                "--jobs",
                "0",
                "--out",
                str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "tables" in out
        assert "2/2 ok" in out
        assert "manifest:" in out

        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir() and p.name != ".cache")
        assert main(["experiments", "validate", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "valid manifest" in out

    def test_experiments_run_second_invocation_hits_cache(self, capsys, tmp_path):
        argv = [
            "experiments", "run", "--only", "fig13",
            "--jobs", "0", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache=hit" in out
        assert "1 cache hit(s)" in out

    def test_experiments_validate_rejects_a_missing_manifest(self, capsys, tmp_path):
        assert main(["experiments", "validate", str(tmp_path)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestObservabilityCommands:
    def _run_observed(self, tmp_path, capsys):
        assert main(
            [
                "experiments", "run", "--only", "fig13", "--quick",
                "--jobs", "0", "--obs", "--out", str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        run_dir = next(
            p for p in tmp_path.iterdir()
            if p.is_dir() and p.name != ".cache"
        )
        return run_dir, out

    def test_obs_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["experiments", "run", "--all", "--obs", "-v"],
            ["experiments", "run", "--all", "--no-obs"],
            ["experiments", "stats", "some/run/dir"],
            ["experiments", "stats", "some/run/dir", "--json"],
            ["experiments", "trace", "some/run/dir", "--out", "t.json"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_run_with_obs_points_at_the_exports(self, capsys, tmp_path):
        run_dir, out = self._run_observed(tmp_path, capsys)
        assert "metrics:" in out
        assert "trace:" in out
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "trace.json").exists()

    def test_run_verbose_shows_profile_detail(self, capsys, tmp_path):
        assert main(
            [
                "experiments", "run", "--only", "fig13", "--quick",
                "--jobs", "0", "--obs", "-v", "--out", str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "seed=" in out
        assert "key=" in out
        assert "wall=" in out and "cpu=" in out
        assert "1 fresh" in out

    def test_stats_renders_metrics_and_profiles(self, capsys, tmp_path):
        run_dir, _ = self._run_observed(tmp_path, capsys)
        assert main(["experiments", "stats", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "metrics for run" in out
        assert "counter runner.experiments.ok 1" in out
        assert "per-experiment profiles:" in out
        assert "fig13" in out

    def test_stats_json_dumps_the_snapshot(self, capsys, tmp_path):
        import json

        run_dir, _ = self._run_observed(tmp_path, capsys)
        assert main(["experiments", "stats", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["runner.experiments.ok"] == 1.0

    def test_stats_without_obs_artifacts_fails_with_hint(self, capsys, tmp_path):
        assert main(["experiments", "stats", str(tmp_path)]) == 1
        assert "--obs" in capsys.readouterr().out

    def test_trace_validates_and_copies(self, capsys, tmp_path):
        import json

        run_dir, _ = self._run_observed(tmp_path, capsys)
        copy_path = tmp_path / "copy.json"
        assert main(["experiments", "trace", str(run_dir)]) == 0
        assert "valid chrome trace" in capsys.readouterr().out
        assert main(
            ["experiments", "trace", str(run_dir), "--out", str(copy_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(copy_path.read_text())["traceEvents"]

    def test_trace_flags_a_corrupted_export(self, capsys, tmp_path):
        run_dir, _ = self._run_observed(tmp_path, capsys)
        (run_dir / "trace.json").write_text('{"traceEvents": [{"ph": "?"}]}')
        assert main(["experiments", "trace", str(run_dir)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestFaultsFlag:
    @staticmethod
    def _write_plan(tmp_path, **rates):
        from repro.faults import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan(seed=5, **rates).to_json_file(path)
        return str(path)

    def test_survey_with_faults_reports_recovery(self, capsys, tmp_path):
        plan = self._write_plan(
            tmp_path, reply_loss_rate=0.3, brownout_rate=0.2
        )
        assert main(
            ["survey", "--nodes", "4", "--seed", "3", "--faults", plan]
        ) == 0
        out = capsys.readouterr().out
        assert "injected faults:" in out
        assert "recovery:" in out

    def test_survey_with_bad_plan_exits(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_rate": 1.0}')
        with pytest.raises(SystemExit):
            main(["survey", "--faults", str(bad)])

    def test_experiments_run_with_faults(self, capsys, tmp_path):
        import json

        plan = self._write_plan(tmp_path, reply_loss_rate=0.2)
        argv = [
            "experiments", "run", "--only", "fault_sweep", "--quick",
            "--jobs", "0", "--out", str(tmp_path), "--faults", plan, "--force",
        ]
        for _ in range(2):  # one --out: --force makes the rerun recompute
            assert main(argv) == 0
            assert "(0 cache hit(s), 1 fresh)" in capsys.readouterr().out
        payloads = []
        for run_dir in sorted(tmp_path.glob("run-*")):
            assert main(["experiments", "validate", str(run_dir)]) == 0
            payloads.append((run_dir / "fault_sweep.json").read_bytes())
        assert len(payloads) == 2 and payloads[0] == payloads[1]
        points = json.loads(payloads[0])["result"]["points"]
        assert any(p["retries"] > 0 or p["degraded"] for p in points)

    def test_experiments_run_faults_rejected_without_acceptor(self, tmp_path):
        plan = self._write_plan(tmp_path, reply_loss_rate=0.2)
        with pytest.raises(SystemExit, match="fault_plan"):
            main(
                [
                    "experiments", "run", "--only", "fig13",
                    "--out", str(tmp_path / "out"), "--faults", plan,
                ]
            )

    def test_experiments_run_retries_flag_parses(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["experiments", "run", "--all", "--retries", "2"]
        )
        assert args.retries == 2
        assert args.faults is None


class TestBadValuesExit2:
    """A value a run rejects is an operator error: one line, exit 2."""

    @pytest.mark.parametrize(
        "verb,argv",
        [
            ("campaign run", ["campaign", "run", "--epochs", "0"]),
            ("fleet run", ["fleet", "run", "--epochs", "0"]),
            ("fleet run", ["fleet", "run", "--nodes", "0"]),
            ("experiments run", ["experiments", "run", "--only", "nosuch"]),
            ("campaign run", ["campaign", "run", "--wall-length", "nan"]),
            ("survey --faults", ["survey", "--faults", "BAD"]),
            (
                "experiments run --faults",
                ["experiments", "run", "--only", "fault_sweep",
                 "--faults", "MISSING"],
            ),
            ("chaos run --plan", ["chaos", "run", "--plan", "BAD"]),
            ("chaos run", ["chaos", "run", "--enospc-write-rate", "2"]),
            ("fleet run --worker-faults", ["fleet", "run", "--worker-faults", "BAD"]),
        ],
        ids=[
            "campaign-epochs", "fleet-epochs", "fleet-nodes", "experiment-name",
            "campaign-wall-length", "survey-faults", "experiments-faults",
            "chaos-plan", "chaos-rate", "fleet-worker-faults",
        ],
    )
    def test_one_stderr_line_and_exit_2(self, verb, argv, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_field": 1}')
        paths = {"BAD": str(bad), "MISSING": str(tmp_path / "nope.json")}
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] == "fleet":
            argv = argv + ["--fleet-dir", str(tmp_path / "fleet")]
        if argv[0] == "experiments":
            argv = argv + ["--out", str(tmp_path / "results")]
        if argv[0] == "chaos":
            argv = argv + ["--dir", str(tmp_path / "drill")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{verb}: ")
        assert err.count("\n") == 1


def _verb_parser(*verb):
    """The subparser of ``verb``, e.g. ``("fleet", "run")``."""
    parser = build_parser()
    for name in verb:
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = sub.choices[name]
    return parser


def _flag(name):
    return "--" + name.replace("_", "-")


class _Built(Exception):
    """Carries the configs a verb built, raised where it would run them."""


def _built(monkeypatch, argv):
    """Each config ``main(argv)`` builds, by class, caught before it runs."""
    def capture(*args, **kwargs):
        raise _Built([a for a in args if dataclasses.is_dataclass(a)])

    monkeypatch.setattr("repro.campaign.run_campaign", capture)
    monkeypatch.setattr("repro.fleet.run_fleet", capture)
    monkeypatch.setattr("repro.faults.chaos.run_drill", capture)
    with pytest.raises(_Built) as excinfo:
        main(argv)
    (config,) = excinfo.value.args[0]
    built = {type(config): config}
    if isinstance(config, FleetConfig):
        built[CampaignConfig] = config.campaign
    return built


class TestOneDeclarationPerOption:
    """Each option field of the campaign, fleet and chaos configs is the
    one declaration of its flag: name, type, default, help, choices."""

    #: The verbs whose flags derive from configs, with their configs in
    #: the order they claim flag names, and the arguments they require.
    VERBS = {
        ("campaign", "run"): ((CampaignConfig,), []),
        ("fleet", "run"): ((FleetConfig, CampaignConfig), ["--fleet-dir"]),
        ("chaos", "run"): ((ChaosConfig,), ["--dir"]),
    }
    #: The option fields with no flag: the supervisor's loop cadence,
    #: and the fleet's campaign template seed, since ``fleet run --seed``
    #: is the fleet seed.
    WITHOUT_FLAG = {
        ("fleet", "run", FleetConfig, "poll_interval_s"),
        ("fleet", "run", CampaignConfig, "seed"),
    }

    def flagged(self, verb):
        configs, _ = self.VERBS[verb]
        return [
            (cls, f, spec)
            for cls in configs
            for f, spec in options(cls)
            if (*verb, cls, f.name) not in self.WITHOUT_FLAG
        ]

    def argv(self, verb, tmp_path):
        _, required = self.VERBS[verb]
        return [*verb, *(a for flag in required for a in (flag, str(tmp_path)))]

    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_every_option_has_exactly_one_flag(self, verb):
        configs, _ = self.VERBS[verb]
        actions = {
            s: a for a in _verb_parser(*verb)._actions for s in a.option_strings
        }
        option_flags = {
            _flag(f.name) for cls in configs for f, _ in options(cls)
        }
        flagged = self.flagged(verb)
        flags = [_flag(f.name) for _, f, _ in flagged]
        assert len(flags) == len(set(flags))
        assert option_flags & set(actions) == set(flags)
        for _, f, spec in flagged:
            action = actions[_flag(f.name)]
            assert action.default == f.default
            assert action.type is type(f.default)
            assert action.help == spec.help
            if isinstance(f.default, str):
                assert tuple(action.choices) == spec.bound

    def test_no_flags_build_the_default_configs(self, monkeypatch, tmp_path):
        defaults = {
            ("campaign", "run"): {CampaignConfig: CampaignConfig()},
            ("fleet", "run"): {
                FleetConfig: FleetConfig(buildings=building_names(4)),
                CampaignConfig: CampaignConfig(),
            },
            ("chaos", "run"): {ChaosConfig: ChaosConfig()},
        }
        for verb, configs in defaults.items():
            assert _built(monkeypatch, self.argv(verb, tmp_path)) == configs

    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_each_flag_sets_its_own_field(self, verb, monkeypatch, tmp_path):
        argv, expected = self.argv(verb, tmp_path), {}
        for cls, f, spec in self.flagged(verb):
            value = spec.bound[-1] if isinstance(f.default, str) else f.default + 1
            argv += [_flag(f.name), str(value)]
            expected[cls, f.name] = value
        built = _built(monkeypatch, argv)
        for (cls, name), value in expected.items():
            assert getattr(built[cls], name) == value
        if verb == ("fleet", "run"):
            assert built[CampaignConfig].seed == CampaignConfig().seed


class TestLibraryErrorsAreOneLine:
    def test_rejected_fleet_manifest_value_exits_2(self, tmp_path, capsys):
        config = FleetConfig(buildings=("b001",)).to_dict()
        config["heartbeat_timeout_s"] = "30"
        (tmp_path / FLEET_MANIFEST_FILENAME).write_text(json.dumps(
            {"schema": FLEET_MANIFEST_SCHEMA, "config": config}
        ))
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "status", "--fleet-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "fleet status: heartbeat_timeout_s must be a number, got '30'\n"
        )

    @pytest.mark.parametrize("verb", ["status", "resume"])
    def test_fleet_manifest_without_config_exits_2(self, verb, tmp_path, capsys):
        path = tmp_path / FLEET_MANIFEST_FILENAME
        path.write_text(json.dumps({"schema": FLEET_MANIFEST_SCHEMA}))
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", verb, "--fleet-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            f"fleet {verb}: {path} has no config object\n"
        )

    def test_unhandled_library_error_exits_1(self, tmp_path):
        # A raw block that fails its CRC: `store query`, rolling it up,
        # meets a SegmentError it has no handler for.
        store = TelemetryStore(tmp_path, create=True)
        with store.writer() as writer:
            ingest_series(writer, "b1", "w1", "strain", np.arange(4.0), np.ones(4))
        store.compact()  # fold the block into raw.seg
        raw = next(tmp_path.rglob("raw.seg"))
        data = bytearray(raw.read_bytes())
        data[-6] ^= 0x01
        raw.write_bytes(bytes(data))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "store", "query",
             "--store", str(tmp_path), "--metric", "strain",
             "--resolution", "daily"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("store query: ")
        assert "CRC32" in done.stderr
        assert done.stderr.count("\n") == 1


def _fenced(text):
    inside = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            yield line


def documented_commands():
    """Each ``python -m repro.cli`` command in the fenced blocks of the
    docs and in the CLI docstring, as (where, argv)."""
    docs = [
        REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    sources = [(path.name, _fenced(path.read_text())) for path in docs]
    sources.append(("repro.cli", repro.cli.__doc__.splitlines()))
    commands = []
    for where, lines in sources:
        pending = ""
        for line in lines:
            line = pending + line.rstrip()
            pending = line[:-1] if line.endswith("\\") else ""
            _, found, rest = line.partition("python -m repro.cli")
            if pending or not found or "..." in rest:
                continue
            argv = shlex.split(rest, comments=True)
            commands.append((where, argv[:-1] if argv[-1:] == ["&"] else argv))
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_parses(self, capsys):
        commands = documented_commands()
        # 97 today; the floor catches an extractor that finds none.
        assert len(commands) > 90
        parser = build_parser()
        rejected = []
        for where, argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit as exc:
                if exc.code != 0:  # `--help` exits 0
                    rejected.append(f"{where}: {shlex.join(argv)}")
        assert rejected == []
