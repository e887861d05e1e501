"""Tests for the parallel runner and run manifests (runtime.runner)."""

import json

import pytest

from repro.errors import ManifestError
from repro.runtime import (
    ExperimentSpec,
    experiment_registry,
    load_manifest,
    run_experiments,
    validate_manifest,
)
from repro.reporting import load_result, load_run

#: A tiny always-works experiment body for synthetic specs.
_OK_BODY = '''
def run(seed: int = 0, value: float = 1.5):
    """Synthetic experiment for runner tests."""
    return {"seed": seed, "value": value}
'''

_FAIL_BODY = '''
def run(seed: int = 0):
    """Synthetic experiment that always explodes."""
    raise ValueError("intentional failure for isolation tests")
'''

_SLEEP_BODY = '''
import time


def run(seed: int = 0):
    """Synthetic experiment that never finishes in time."""
    time.sleep(60.0)
    return {}
'''


def _make_spec(tmp_path, monkeypatch, name, body, params=None):
    (tmp_path / "synthmods").mkdir(exist_ok=True)
    module_file = tmp_path / "synthmods" / f"{name}.py"
    module_file.write_text(body)
    monkeypatch.syspath_prepend(str(tmp_path / "synthmods"))
    defaults = {"seed": 0}
    defaults.update(params or {})
    return ExperimentSpec(
        name=name,
        module_name=name,
        title=f"synthetic {name}",
        default_params=defaults,
        seed=0,
    )


class TestSweep:
    NAMES = list(experiment_registry())

    def test_parallel_sweep_writes_results_and_manifest(self, tmp_path):
        report = run_experiments(
            names=self.NAMES, jobs=2, out_dir=tmp_path, quick=True
        )
        assert report.ok
        assert [o.name for o in report.outcomes] == self.NAMES  # ordered
        for outcome in report.outcomes:
            payload = load_result(report.run_dir / outcome.result_file)
            assert payload["experiment"] == outcome.name
            assert payload["seed"] == outcome.seed
            assert payload["result"] is not None
        manifest = load_manifest(report.run_dir)  # validates or raises
        assert manifest["totals"]["ok"] == len(self.NAMES)
        assert manifest["jobs"] == 2

    def test_load_run_round_trips_the_sweep(self, tmp_path):
        report = run_experiments(names=["fig13"], jobs=0, out_dir=tmp_path)
        results = load_run(report.run_dir)
        assert set(results) == {"fig13"}
        assert results["fig13"]["result"]["standby_power"] > 0.0

    def test_inline_and_parallel_agree(self, tmp_path):
        inline = run_experiments(
            names=["fig13"], jobs=0, out_dir=tmp_path / "a", force=True
        )
        parallel = run_experiments(
            names=["fig13"], jobs=2, out_dir=tmp_path / "b", force=True
        )
        assert inline.outcomes[0].result == parallel.outcomes[0].result


class TestIsolation:
    def test_one_failing_experiment_does_not_kill_the_sweep(
        self, tmp_path, monkeypatch
    ):
        specs = [
            _make_spec(tmp_path, monkeypatch, "synth_ok_a", _OK_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_boom", _FAIL_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_ok_b", _OK_BODY),
        ]
        report = run_experiments(specs=specs, jobs=2, out_dir=tmp_path / "out")
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["synth_ok_a"].status == "ok"
        assert by_name["synth_ok_b"].status == "ok"
        assert by_name["synth_boom"].status == "failed"
        assert "intentional failure" in by_name["synth_boom"].error
        # The manifest still validates with the failure recorded.
        manifest = load_manifest(report.run_dir)
        assert manifest["totals"]["failed"] == 1

    def test_timeout_marks_the_experiment_and_spares_the_rest(
        self, tmp_path, monkeypatch
    ):
        specs = [
            _make_spec(tmp_path, monkeypatch, "synth_slow", _SLEEP_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_ok_c", _OK_BODY),
        ]
        report = run_experiments(
            specs=specs, jobs=2, out_dir=tmp_path / "out", timeout_s=1.5
        )
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["synth_slow"].status == "timeout"
        assert by_name["synth_ok_c"].status == "ok"

    def test_source_change_invalidates_the_cache(self, tmp_path, monkeypatch):
        spec = _make_spec(tmp_path, monkeypatch, "synth_mutant", _OK_BODY)
        out = tmp_path / "out"
        first = run_experiments(specs=[spec], jobs=0, out_dir=out)
        assert first.outcomes[0].cache == "miss"
        again = run_experiments(specs=[spec], jobs=0, out_dir=out)
        assert again.outcomes[0].cache == "hit"

        # Rewrite the module with different source (same behaviour) and
        # reload so inspect sees the new text.
        import importlib
        import linecache
        import sys

        module_file = tmp_path / "synthmods" / "synth_mutant.py"
        module_file.write_text(_OK_BODY + "\n# tweaked\n")
        linecache.clearcache()
        importlib.invalidate_caches()
        importlib.reload(sys.modules["synth_mutant"])

        changed = run_experiments(specs=[spec], jobs=0, out_dir=out)
        assert changed.outcomes[0].cache == "miss"
        assert changed.outcomes[0].cache_key != first.outcomes[0].cache_key


class TestManifestValidation:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)

    def test_unreadable_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("not json {")
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)

    def test_validator_reports_missing_fields(self):
        problems = validate_manifest({"schema": "repro/run-manifest/v1"})
        assert any("run_id" in p for p in problems)
        assert any("experiments" in p for p in problems)

    def test_validator_rejects_tampered_totals(self, tmp_path):
        report = run_experiments(names=["fig13"], jobs=0, out_dir=tmp_path)
        manifest = json.loads(
            (report.run_dir / "manifest.json").read_text()
        )
        assert validate_manifest(manifest) == []
        manifest["totals"]["ok"] = 99
        assert any("totals" in p for p in validate_manifest(manifest))

    def test_validator_rejects_bad_status(self, tmp_path):
        report = run_experiments(names=["fig13"], jobs=0, out_dir=tmp_path)
        manifest = report.manifest
        manifest["experiments"][0]["status"] = "exploded"
        assert any("status" in p for p in validate_manifest(manifest))


#: Fails on the first attempt, succeeds once its flag file exists --
#: the shape of a transient crash the retry pass should absorb.
_FLAKY_BODY = '''
from pathlib import Path


def run(seed: int = 0, flag: str = ""):
    """Synthetic experiment that fails until its flag file exists."""
    marker = Path(flag)
    if not marker.exists():
        marker.write_text("tried")
        raise RuntimeError("transient failure")
    return {"recovered": True}
'''


class TestRetries:
    def test_transient_failure_recovers_with_retries(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "flaky.flag"
        spec = _make_spec(
            tmp_path, monkeypatch, "synth_flaky", _FLAKY_BODY,
            params={"flag": str(flag)},
        )
        report = run_experiments(
            specs=[spec], jobs=0, out_dir=tmp_path / "out",
            retries=2, retry_backoff_s=0.01,
        )
        assert report.ok
        outcome = report.outcomes[0]
        assert outcome.attempts == 2
        assert outcome.result == {"recovered": True}
        entry = report.manifest["experiments"][0]
        assert entry["attempts"] == 2
        assert load_manifest(report.run_dir)  # manifest still validates

    def test_no_retries_leaves_transient_failure(self, tmp_path, monkeypatch):
        flag = tmp_path / "flaky2.flag"
        spec = _make_spec(
            tmp_path, monkeypatch, "synth_flaky2", _FLAKY_BODY,
            params={"flag": str(flag)},
        )
        report = run_experiments(specs=[spec], jobs=0, out_dir=tmp_path / "out")
        assert not report.ok
        assert report.outcomes[0].attempts == 1
        assert "attempts" not in report.manifest["experiments"][0]

    def test_deterministic_failure_exhausts_retries(
        self, tmp_path, monkeypatch
    ):
        spec = _make_spec(tmp_path, monkeypatch, "synth_fail_retry", _FAIL_BODY)
        report = run_experiments(
            specs=[spec], jobs=0, out_dir=tmp_path / "out",
            retries=2, retry_backoff_s=0.01,
        )
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # first try + 2 retries
        assert "intentional failure" in outcome.error

    def test_negative_retries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiments(names=["fig13"], out_dir=tmp_path, retries=-1)


_INTERRUPT_BODY = '''
def run(seed: int = 0):
    """Synthetic experiment standing in for ctrl-c mid-sweep."""
    raise KeyboardInterrupt("operator pressed ctrl-c")
'''

_SIGTERM_BODY = '''
import os
import signal


def run(seed: int = 0):
    """Synthetic experiment standing in for an orchestrator's TERM."""
    os.kill(os.getpid(), signal.SIGTERM)
    return {}
'''


class TestInterrupt:
    """SIGINT/SIGTERM stop the sweep but still leave a valid manifest."""

    def test_interrupt_keeps_finished_work_and_marks_the_rest(
        self, tmp_path, monkeypatch
    ):
        specs = [
            _make_spec(tmp_path, monkeypatch, "synth_done", _OK_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_ctrlc", _INTERRUPT_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_never", _OK_BODY),
        ]
        report = run_experiments(specs=specs, jobs=0, out_dir=tmp_path / "out")
        assert report.interrupted and not report.ok
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["synth_done"].status == "ok"
        assert by_name["synth_ctrlc"].status == "interrupted"
        assert by_name["synth_never"].status == "interrupted"
        assert "sweep interrupted" in by_name["synth_never"].error

        # The completed experiment's result file survived the interrupt.
        payload = load_result(
            report.run_dir / by_name["synth_done"].result_file
        )
        assert payload["result"] == {"seed": 0, "value": 1.5}

        # The partial manifest is a *valid* manifest.
        manifest = load_manifest(report.run_dir)
        assert manifest["interrupted"] is True
        assert manifest["totals"]["ok"] == 1

    def test_sigterm_is_converted_and_handled_the_same_way(
        self, tmp_path, monkeypatch
    ):
        specs = [
            _make_spec(tmp_path, monkeypatch, "synth_term", _SIGTERM_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_after", _OK_BODY),
        ]
        report = run_experiments(specs=specs, jobs=0, out_dir=tmp_path / "out")
        assert report.interrupted
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["synth_term"].status == "interrupted"
        assert by_name["synth_after"].status == "interrupted"
        assert load_manifest(report.run_dir)["interrupted"] is True
        # The handler was uninstalled on the way out.
        import signal as signal_module

        assert (
            signal_module.getsignal(signal_module.SIGTERM)
            is signal_module.SIG_DFL
        )

    def test_interrupt_is_counted_in_obs(self, tmp_path, monkeypatch):
        from repro.obs import observed

        spec = _make_spec(
            tmp_path, monkeypatch, "synth_ctrlc2", _INTERRUPT_BODY
        )
        with observed() as scope:
            report = run_experiments(
                specs=[spec], jobs=0, out_dir=tmp_path / "out"
            )
            assert (
                scope.registry.counter("runner.interrupted").value == 1.0
            )
        assert report.interrupted

    def test_parallel_interrupt_reaps_the_pool_and_writes_a_manifest(
        self, tmp_path, monkeypatch
    ):
        specs = [
            _make_spec(tmp_path, monkeypatch, "synth_par_a", _OK_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_par_boom", _INTERRUPT_BODY),
            _make_spec(tmp_path, monkeypatch, "synth_par_b", _OK_BODY),
        ]
        report = run_experiments(specs=specs, jobs=2, out_dir=tmp_path / "out")
        assert report.interrupted
        # Completion of the neighbours is scheduling-dependent; what is
        # guaranteed: every outcome is terminal, the interrupt itself is
        # marked, and the manifest validates.
        assert all(
            o.status in ("ok", "interrupted") for o in report.outcomes
        )
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["synth_par_boom"].status == "interrupted"
        assert load_manifest(report.run_dir)["interrupted"] is True

    def test_validator_demands_the_top_level_interrupted_flag(
        self, tmp_path, monkeypatch
    ):
        spec = _make_spec(tmp_path, monkeypatch, "synth_ctrlc3", _INTERRUPT_BODY)
        report = run_experiments(specs=[spec], jobs=0, out_dir=tmp_path / "out")
        manifest = json.loads(
            (report.run_dir / "manifest.json").read_text()
        )
        assert validate_manifest(manifest) == []
        del manifest["interrupted"]
        assert any("interrupted" in p for p in validate_manifest(manifest))
