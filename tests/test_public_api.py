"""API-stability tests: every advertised export exists and resolves."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.acoustics",
    "repro.baselines",
    "repro.circuits",
    "repro.experiments",
    "repro.faults",
    "repro.link",
    "repro.materials",
    "repro.node",
    "repro.phy",
    "repro.protocol",
    "repro.reader",
    "repro.runtime",
    "repro.shm",
    "repro.store",
    "repro.transducer",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_base_exception_exported(self):
        assert issubclass(repro.ReproError, Exception)

    @pytest.mark.parametrize("imports,unloaded", [
        # scipy.signal is most of a cold import and only the PHY DSP
        # helpers use it, so it must load lazily.
        ("repro, repro.campaign.driver, repro.serve", ("scipy",)),
        # Campaign processes, fleet workers and chaos drills never serve
        # HTTP, so they must not pay for the gateway's imports.
        ("repro, repro.campaign.driver",
         ("asyncio", "http.server", "repro.serve")),
    ], ids=["scipy", "serving"])
    def test_imports_leave_modules_unloaded(self, imports, unloaded):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = subprocess.run(
            [sys.executable, "-c",
             f"import sys; import {imports}; "
             "print(sorted(m for m in sys.modules if any("
             f"m == p or m.startswith(p + '.') for p in {unloaded!r})))"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert probe.stdout.strip() == "[]"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_no_private_names_in_all(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert not name.startswith("_"), f"{module_name}.{name}"

    def test_public_callables_documented(self, module_name):
        """Every exported class/function carries a docstring."""
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{module_name}.{name} undocumented"


class TestErrorHierarchy:
    def test_all_library_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_domain_errors_importable_from_their_modules(self):
        from repro.circuits import SensorError
        from repro.link import DeploymentError, LocalizationError
        from repro.phy import MetricsError
        from repro.reporting import ReportingError
        from repro.shm import DamageError, PaoError, ShmError

        for exc in (
            SensorError,
            DeploymentError,
            LocalizationError,
            MetricsError,
            ReportingError,
            DamageError,
            PaoError,
            ShmError,
        ):
            assert issubclass(exc, repro.ReproError)
