"""Each process imports only what it runs, and nothing after its first epoch.

Package ``__init__``s export lazily (:mod:`repro._lazy`), so what a
process loads is decided by the names it reads.  These tests pin that
in fresh interpreters, for the processes the pilot deployment launches:
the dashboard gateway, a campaign run or resume, and the CLI.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the gateway and campaign processes of ``perfbench`` import.
GATEWAY_IMPORTS = (
    "import repro; from repro.serve import AsyncGateway, run_gateway; "
    "from repro.store import TelemetryStore"
)
CAMPAIGN_IMPORTS = (
    "import repro; from repro.campaign.config import CampaignConfig; "
    "from repro.campaign.driver import resume_campaign, run_campaign"
)


def _run(code: str, *args: str) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return probe.stdout


def _loaded(imports: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``imports``."""
    return json.loads(_run(
        f"import json, sys; {imports}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"
    ))


def _under(modules: list, prefixes) -> list:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


class TestImportPins:
    def test_import_repro_loads_no_subpackage(self):
        assert _loaded("import repro") == ["repro", "repro._lazy"]

    def test_gateway_child(self):
        loaded = _loaded(GATEWAY_IMPORTS)
        assert len(loaded) <= 30, loaded
        assert _under(loaded, (
            "repro.campaign", "repro.link", "repro.acoustics", "repro.phy",
            "repro.protocol", "repro.fleet", "repro.experiments",
            "repro.baselines", "repro.runtime.runner",
            "repro.runtime.registry", "repro.faults.worker",
        )) == []

    def test_store_import(self):
        loaded = _loaded("from repro.store import TelemetryStore")
        assert _under(loaded, (
            "repro.shm", "repro.runtime.runner", "repro.runtime.registry",
            "repro.faults.worker",
        )) == []

    def test_campaign_child(self):
        loaded = _loaded(CAMPAIGN_IMPORTS)
        assert _under(loaded, (
            "repro.serve", "repro.fleet", "repro.experiments",
            "repro.baselines", "repro.runtime.runner",
            "repro.runtime.registry",
        )) == []

    def test_cli(self):
        loaded = _loaded("import repro.cli")
        assert _under(loaded, (
            "repro.campaign.driver", "repro.fleet.supervisor",
            "repro.faults.chaos", "repro.serve", "repro.link",
            "repro.acoustics",
        )) == []


#: Runs in a fresh interpreter: a store-exporting campaign, fresh or
#: resumed, and prints the modules that were first imported after its
#: first epoch hook, then those a compaction imported.
LATE_PROBE = textwrap.dedent("""
    import json, sys

    def watched():
        return {m for m in sys.modules
                if m == "repro" or m.startswith("repro.")
                or m == "numpy.random" or m.startswith("numpy.random.")}

    import repro
    from repro.campaign.config import CampaignConfig
    from repro.campaign.driver import resume_campaign, run_campaign

    mode, state, store = sys.argv[1:]
    at_first_hook = []

    def hook(epoch):
        if not at_first_hook:
            at_first_hook.append(watched())

    if mode == "fresh":
        run_campaign(CampaignConfig(seed=2021), state_dir=state,
                     store_dir=store, epoch_hook=hook)
    else:
        resume_campaign(state, store_dir=store, epoch_hook=hook)
    late = sorted(watched() - at_first_hook[0])
    from repro.store import TelemetryStore
    before = set(sys.modules)
    TelemetryStore(store, create=False).compact()
    print(json.dumps({"late": late,
                      "compact": sorted(set(sys.modules) - before)}))
""")

#: Runs the default campaign and SIGKILLs itself at the epoch-56 hook.
KILLED_AT_56 = textwrap.dedent("""
    import os, signal, sys
    from repro.campaign.config import CampaignConfig
    from repro.campaign.driver import run_campaign

    def hook(epoch):
        if epoch == 56:
            os.kill(os.getpid(), signal.SIGKILL)

    run_campaign(CampaignConfig(seed=2021), state_dir=sys.argv[1],
                 store_dir=sys.argv[2], epoch_hook=hook)
""")


class TestNothingImportedLate:
    def test_fresh_campaign_and_compaction(self, tmp_path):
        probe = json.loads(_run(
            LATE_PROBE, "fresh", str(tmp_path / "s"), str(tmp_path / "t")
        ))
        assert probe == {"late": [], "compact": []}

    def test_resumed_campaign_and_compaction(self, tmp_path):
        state, store = str(tmp_path / "s"), str(tmp_path / "t")
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_AT_56, state, store],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert killed.returncode == -9, killed.stderr
        probe = json.loads(_run(LATE_PROBE, "resume", state, store))
        assert probe == {"late": [], "compact": []}


@pytest.mark.parametrize("name", _packages())
class TestLazyExports:
    def test_one_mechanism(self, name):
        package = importlib.import_module(name)
        assert package.__getattr__.__module__ == "repro._lazy"
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=name):
            package.no_such_export

    def test_exports_named_like_submodules_are_those_submodules(self, name):
        """Importing a submodule binds it on its package, so an export
        may share a submodule's name only when it is that submodule."""
        package = importlib.import_module(name)
        submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
        for export in set(package.__all__) & submodules:
            assert package.__getattr__(export) is importlib.import_module(
                f"{name}.{export}"
            ), export
