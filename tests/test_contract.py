"""The contract hashes every change is checked against, pinned.

* the default campaign's result sha256 (seed 2021, 74 epochs), run
  with a store as ``campaign run --store`` runs it;
* that store's segment bytes after one compaction: sha256 over every
  ``*.seg`` file in sorted relative-path order, each as
  ``relpath NUL bytes``;
* the fleet result sha256 of the ``fleet run`` below, as the CLI
  prints it.

A change that moves one of them on purpose re-pins it here and gives
the old and new values in CHANGES.md, as it would for
``tests/io_trace.txt``.  ``scripts/ci.sh`` runs this file again under
two ``PYTHONHASHSEED`` values.
"""

import hashlib
from pathlib import Path

from repro.campaign import CampaignConfig
from repro.campaign.driver import result_hash, run_campaign
from repro.cli import main
from repro.store import TelemetryStore

RESULT_SHA256 = "836b4132819baf10f939651691462229bf5fe9717b9ef75f6283394f52269ce9"
SEG_SHA256 = "788f8debc088c8880b65dc4d01a23f944b7d2071dc656d02286da5ed4ebbb3e3"
FLEET_SHA256 = "835b2382f2096e7810a4042ab3c833020fe59e725b7c2cc252ea94a65394a3af"

FLEET_FLAGS = [
    "--buildings", "4", "--epochs", "3", "--nodes", "2",
    "--hours-per-epoch", "6", "--storm-period-epochs", "2",
    "--storm-duration-epochs", "1", "--epoch-timeout-s", "30",
    "--backoff-base-s", "0.05", "--backoff-max-s", "0.5", "--workers", "2",
]


def seg_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.seg"), key=lambda p: str(p.relative_to(root))):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_default_campaign_result_and_compacted_segments(tmp_path):
    outcome = run_campaign(
        CampaignConfig(seed=2021), state_dir=tmp_path / "state",
        store_dir=tmp_path / "store",
    )
    TelemetryStore(tmp_path / "store", create=False).compact()
    assert result_hash(outcome.result) == RESULT_SHA256
    assert seg_hash(tmp_path / "store") == SEG_SHA256


def test_fleet_result(tmp_path, capsys):
    code = main(["fleet", "run", "--fleet-dir", str(tmp_path / "fleet"), *FLEET_FLAGS])
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"result sha256: {FLEET_SHA256}\n" in out
