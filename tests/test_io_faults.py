"""Unit tests for the storage-fault injection layer (repro.faults.io).

The inertness proof matters most: with no plan installed (or an
all-zero plan), the shim must be a single ``is None`` test in front of
the exact syscalls the code made before the module existed -- zero
extra fsyncs, byte-identical artifacts.  The rest pins the plan schema,
the per-stream determinism, each fault's observable behaviour, the
retry policy, and the stale-temp reclaim.
"""

import dataclasses
import errno
import json
import os
from pathlib import Path

import pytest

from repro.errors import FaultConfigError, FaultPlanError
from repro.faults.io import (
    IO_FAULT_SCHEMA,
    IO_RATE_FIELDS,
    IoFaultInjector,
    IoFaultPlan,
    TMP_SUFFIX,
    active_io_injector,
    clear_io_faults,
    install_io_faults,
    io_faults,
    io_faults_active,
    io_read_bytes,
    io_replace,
    io_write,
    reclaim_tmp_files,
    retry_io,
)
from repro.runtime.serialize import write_json_atomic


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    clear_io_faults()
    yield
    clear_io_faults()


class TestPlan:
    def test_default_plan_is_inactive(self):
        plan = IoFaultPlan()
        assert not plan.active
        assert plan == IoFaultPlan.none()

    def test_any_nonzero_rate_activates(self):
        for name in IO_RATE_FIELDS:
            assert dataclasses.replace(IoFaultPlan(), **{name: 0.1}).active

    def test_persistence_alone_does_not_activate(self):
        assert not IoFaultPlan(persistence=1.0).active

    def test_rates_validated(self):
        with pytest.raises(FaultPlanError):
            IoFaultPlan(enospc_write_rate=1.5)
        with pytest.raises(FaultPlanError):
            IoFaultPlan(torn_write_rate=-0.1)
        with pytest.raises(FaultPlanError):
            IoFaultPlan(eio_read_rate=float("nan"))
        with pytest.raises(FaultConfigError):
            IoFaultPlan(seed="7")
        for bad in (True, float("nan"), float("inf"), -0.1, 1.1, "0.1"):
            for name in IoFaultPlan.probabilities():
                with pytest.raises(FaultPlanError):
                    IoFaultPlan(**{name: bad})
        for bad in (True, 1.5, "7", None):
            with pytest.raises(FaultPlanError):
                IoFaultPlan(seed=bad)

    def test_scaled_clamps_and_keeps_persistence(self):
        plan = IoFaultPlan(
            enospc_write_rate=0.4, torn_write_rate=0.9, persistence=0.3
        )
        doubled = plan.scaled(2.0)
        assert doubled.enospc_write_rate == pytest.approx(0.8)
        assert doubled.torn_write_rate == 1.0
        assert doubled.persistence == 0.3
        with pytest.raises(FaultPlanError):
            plan.scaled(float("inf"))
        with pytest.raises(FaultPlanError):
            plan.scaled(-1.0)

    def test_json_round_trip(self, tmp_path):
        plan = IoFaultPlan(
            seed=42, enospc_write_rate=0.1, drop_rename_rate=0.2,
            bitrot_read_rate=0.05, persistence=0.5,
        )
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == IO_FAULT_SCHEMA
        assert IoFaultPlan.from_json_file(path) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown io-fault field"):
            IoFaultPlan.from_dict({"seed": 1, "eio_rate": 0.1})
        with pytest.raises(FaultConfigError, match="unsupported io-fault schema"):
            IoFaultPlan.from_dict({"schema": "repro/io-faults/v999"})


class TestInertness:
    """An inactive shim must change nothing -- bytes or syscalls."""

    def test_inactive_plan_installs_nothing(self):
        assert install_io_faults(IoFaultPlan()) is None
        assert not io_faults_active()
        assert install_io_faults(None) is None

    def test_context_manager_restores_clean_path(self):
        with io_faults(IoFaultPlan(enospc_write_rate=0.5)) as injector:
            assert injector is not None
            assert active_io_injector() is injector
        assert not io_faults_active()

    def test_clean_write_fsyncs_exactly_file_and_dir(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
        )
        write_json_atomic(tmp_path / "a.json", {"x": 1})
        assert len(calls) == 2  # the temp file, then the parent dir

    def test_clean_shims_pass_through(self, tmp_path):
        path = tmp_path / "f.bin"
        with path.open("wb") as handle:
            io_write(handle, b"payload")
        assert io_read_bytes(path) == b"payload"
        io_replace(path, tmp_path / "g.bin")
        assert not path.exists()
        assert (tmp_path / "g.bin").read_bytes() == b"payload"


class TestInjector:
    def _run_sequence(self, seed, tmp_path, tag):
        injector = IoFaultInjector(
            IoFaultPlan(
                seed=seed, enospc_write_rate=0.3, torn_write_rate=0.3,
                eio_fsync_rate=0.3, drop_rename_rate=0.3,
            )
        )
        outcomes = []
        for i in range(40):
            path = tmp_path / f"{tag}-{i}.bin"
            try:
                with path.open("wb") as handle:
                    injector.write(handle, b"0123456789")
                    injector.fsync(handle.fileno(), path)
                outcomes.append(("ok", path.read_bytes()))
            except OSError as exc:
                outcomes.append(("err", exc.errno, path.read_bytes()))
        return dict(injector.counts), outcomes

    def test_same_seed_same_schedule(self, tmp_path):
        counts_a, outcomes_a = self._run_sequence(7, tmp_path, "a")
        counts_b, outcomes_b = self._run_sequence(7, tmp_path, "b")
        assert counts_a == counts_b
        assert outcomes_a == outcomes_b
        assert sum(counts_a.values()) > 0  # the schedule actually fired

    def test_different_seed_different_schedule(self, tmp_path):
        _, outcomes_a = self._run_sequence(7, tmp_path, "a")
        _, outcomes_b = self._run_sequence(8, tmp_path, "b")
        assert outcomes_a != outcomes_b

    def test_torn_write_keeps_strict_prefix(self, tmp_path):
        injector = IoFaultInjector(IoFaultPlan(seed=1, torn_write_rate=1.0))
        path = tmp_path / "torn.bin"
        data = b"abcdefghij"
        with path.open("wb") as handle:
            with pytest.raises(OSError) as err:
                injector.write(handle, data)
        assert err.value.errno == errno.EIO
        landed = path.read_bytes()
        assert 0 < len(landed) < len(data)
        assert data.startswith(landed)
        assert injector.counts["torn_writes"] == 1

    def test_enospc_lands_no_bytes(self, tmp_path):
        injector = IoFaultInjector(IoFaultPlan(seed=1, enospc_write_rate=1.0))
        path = tmp_path / "full.bin"
        with path.open("wb") as handle:
            with pytest.raises(OSError) as err:
                injector.write(handle, b"data")
        assert err.value.errno == errno.ENOSPC
        assert path.read_bytes() == b""

    def test_dropped_rename_leaves_tmp_behind(self, tmp_path):
        injector = IoFaultInjector(IoFaultPlan(seed=1, drop_rename_rate=1.0))
        src, dst = tmp_path / "x.tmp", tmp_path / "x.json"
        src.write_text("{}")
        injector.replace(src, dst)  # "succeeds" silently
        assert src.exists() and not dst.exists()
        assert injector.counts["renames_dropped"] == 1

    def test_bitrot_flips_exactly_one_bit(self, tmp_path):
        injector = IoFaultInjector(IoFaultPlan(seed=3, bitrot_read_rate=1.0))
        path = tmp_path / "rot.bin"
        data = bytes(range(64))
        path.write_bytes(data)
        rotted = injector.read_bytes(path)
        assert len(rotted) == len(data)
        diff = [(a ^ b) for a, b in zip(data, rotted) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1
        assert path.read_bytes() == data  # at-rest data untouched

    def test_persistent_fault_latches_the_path(self, tmp_path):
        injector = IoFaultInjector(
            IoFaultPlan(seed=5, enospc_write_rate=1.0, persistence=1.0)
        )
        path = tmp_path / "dead.bin"
        for expected in ("enospc", "persistent_hits"):
            with path.open("wb") as handle:
                with pytest.raises(OSError) as err:
                    injector.write(handle, b"data")
            assert err.value.errno == errno.ENOSPC
            assert injector.counts[expected] >= 1
        assert injector.counts["persistent_faults"] == 1

    def test_from_plan_inactive_is_none(self):
        assert IoFaultInjector.from_plan(None) is None
        assert IoFaultInjector.from_plan(IoFaultPlan()) is None
        assert IoFaultInjector.from_plan(
            IoFaultPlan(eio_read_rate=0.1)
        ) is not None


class TestRetryIo:
    def test_transient_eio_retried_to_success(self):
        failures = [OSError(errno.EIO, "flaky")] * 2
        calls = []

        def operation():
            calls.append(1)
            if failures:
                raise failures.pop()
            return "done"

        assert retry_io(operation, "test", backoff_base_s=0.0) == "done"
        assert len(calls) == 3

    def test_enospc_never_retried(self):
        calls = []

        def operation():
            calls.append(1)
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as err:
            retry_io(operation, "test", backoff_base_s=0.0)
        assert err.value.errno == errno.ENOSPC
        assert len(calls) == 1

    def test_budget_exhaustion_reraises_loudly(self):
        calls = []

        def operation():
            calls.append(1)
            raise OSError(errno.EIO, "still broken")

        with pytest.raises(OSError):
            retry_io(operation, "test", retries=2, backoff_base_s=0.0)
        assert len(calls) == 3  # initial + 2 retries

    def test_on_retry_heal_hook_runs_before_each_rerun(self):
        failures = [OSError(errno.EIO, "torn")] * 2
        healed = []

        def operation():
            if failures:
                raise failures.pop()
            return "ok"

        retry_io(
            operation, "test", backoff_base_s=0.0,
            on_retry=lambda attempt, exc: healed.append(attempt),
        )
        assert healed == [1, 2]

    def test_non_oserror_propagates_untouched(self):
        def operation():
            raise ValueError("not io")

        with pytest.raises(ValueError):
            retry_io(operation, "test")


class TestReclaimTmpFiles:
    def test_sweeps_only_tmp_files(self, tmp_path):
        (tmp_path / "a.json").write_text("{}")
        (tmp_path / f"a.json{TMP_SUFFIX}").write_text("{")
        (tmp_path / "deep").mkdir()
        (tmp_path / "deep" / f"b.seg{TMP_SUFFIX}").write_text("x")
        assert reclaim_tmp_files(tmp_path, recursive=True) == 2
        assert (tmp_path / "a.json").exists()
        assert not list(tmp_path.rglob("*" + TMP_SUFFIX))

    def test_non_recursive_skips_subdirs(self, tmp_path):
        (tmp_path / f"top{TMP_SUFFIX}").write_text("x")
        (tmp_path / "deep").mkdir()
        (tmp_path / "deep" / f"nested{TMP_SUFFIX}").write_text("x")
        assert reclaim_tmp_files(tmp_path, recursive=False) == 1
        assert (tmp_path / "deep" / f"nested{TMP_SUFFIX}").exists()

    def test_missing_root_is_a_noop(self, tmp_path):
        assert reclaim_tmp_files(tmp_path / "nope") == 0
