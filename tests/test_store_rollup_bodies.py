"""The rollup response bodies of a compacted campaign store, pinned.

An 8-epoch campaign at seed 2021 exports to a store, which is then
compacted once.  For every series this hashes the ``/series`` body at
``daily`` and ``hourly`` over the whole range, over one bucket-aligned
window and over one unaligned window; per building, daily-mean
``/aggregate`` of strain and of stress grouped by node and an
hourly-max ``/aggregate`` of acceleration (whole range and the
unaligned window); and ``/health`` over the unaligned window.

The hashes were recorded from the store when compaction still wrote
``hourly.seg``/``daily.seg`` and the engine served those files.  Rollups
are now computed from raw on every read, and must answer with the same
bytes: a bucket is returned when its start lies in ``[t0, t1]`` and it
carries the statistics of the whole bucket.

``scripts/ci.sh`` runs this file again under two ``PYTHONHASHSEED``
values.  Running it as a script prints the current hashes::

    PYTHONPATH=src python tests/test_store_rollup_bodies.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple
from urllib.parse import urlencode

import pytest

from repro.campaign import CampaignConfig
from repro.campaign.driver import run_campaign
from repro.serve import EndpointCore
from repro.serve.cache import RollupCache
from repro.store import TelemetryStore

#: A window on bucket boundaries at both widths, and one on neither.
ALIGNED = {"t0": 168.0, "t1": 672.0}
UNALIGNED = {"t0": 100.5, "t1": 1000.25}

#: sha256 over ``target NUL body`` of each request in a group, in order.
GOLDEN = {
    "series daily whole": "52579f2917b5b285976545bba468f5d785e2e5d5e038acbd669ee473daadd9ca",
    "series daily aligned": "8d1305c8db01e9e0905cd55e593ae1c0cdab3f645fd288d9992e6f6f4034f77e",
    "series daily unaligned": "85da6cf4d21fc60c3da9365be7e504c4df4aaedc3527fe1ee6519638a5710a28",
    "series hourly whole": "a7ce700365e39198f9b9f819d0db042d14b433f2954583f124d783eff562e11f",
    "series hourly aligned": "0487e41688fe08da91335da9a1dc7578086bd736794080d05bcafe2f79dd171a",
    "series hourly unaligned": "eea42bfd86a22ae38bca8f35d11cb0b7cb683aa5ce3a25216d2d343a3c4657e4",
    "aggregate daily mean whole": "dba6880620819c71b839b817c122971067726d3a42b64bd600730e6eeac20c8b",
    "aggregate hourly max whole": "3803c87f312be1d9ee10b83fdbe202314415cc2979b0dccb1bc938d0c63004ef",
    "aggregate daily mean unaligned": "7a03aced13cb98a18958905496c4b2761e050e4949fdab833c5676bdf4ef5f55",
    "aggregate hourly max unaligned": "3792446c144a1b9b23e7a229719d8449cca11eee98facf4b88ce20ded835b0a5",
    "health unaligned": "0a9514a9ac3e7f9145997328e9dc55bd082098fc9540ac15bf6cb8c2c7de7b2a",
}


def requests(store: TelemetryStore) -> Dict[str, List[Tuple[str, Dict[str, str]]]]:
    """The pinned requests, grouped: ``{group: [(path, params), ...]}``."""
    groups: Dict[str, List[Tuple[str, Dict[str, str]]]] = {}
    for resolution in ("daily", "hourly"):
        for name, window in (("whole", {}), ("aligned", ALIGNED),
                             ("unaligned", UNALIGNED)):
            groups[f"series {resolution} {name}"] = [
                ("/series", dict(
                    building=key.building, wall=key.wall,
                    node=str(key.node_id), metric=key.metric,
                    resolution=resolution,
                    **{k: repr(v) for k, v in window.items()},
                ))
                for key in store.keys()
            ]
    buildings = sorted({key.building for key in store.keys()})
    for name, window in (("whole", {}), ("unaligned", UNALIGNED)):
        bounds = {k: repr(v) for k, v in window.items()}
        groups[f"aggregate daily mean {name}"] = [
            ("/aggregate", dict(metric=metric, agg="mean", building=b,
                                resolution="daily", group_by="node", **bounds))
            for b in buildings for metric in ("strain", "stress_mpa")
        ]
        groups[f"aggregate hourly max {name}"] = [
            ("/aggregate", dict(metric="acceleration", agg="max", building=b,
                                resolution="hourly", **bounds))
            for b in buildings
        ]
    groups["health unaligned"] = [
        ("/health", dict(building=b, **{k: repr(v) for k, v in UNALIGNED.items()}))
        for b in buildings
    ]
    return groups


def digests(core: EndpointCore) -> Dict[str, str]:
    """Each group's sha256 over its requests' targets and bodies."""
    out = {}
    for group, members in requests(core.store).items():
        digest = hashlib.sha256()
        for path, params in members:
            response = core.handle("GET", path, params)
            assert response.status == 200, (path, params, response.body)
            digest.update(f"{path}?{urlencode(params)}".encode() + b"\0")
            digest.update(response.body)
        out[group] = digest.hexdigest()
    return out


@pytest.fixture(scope="module")
def compacted(tmp_path_factory):
    root = tmp_path_factory.mktemp("bodies")
    run_campaign(
        CampaignConfig(seed=2021, epochs=8),
        state_dir=root / "state", store_dir=root / "store",
    )
    TelemetryStore(root / "store", create=False).compact()
    return root / "store"


def test_bodies_match_the_golden(compacted):
    got = digests(EndpointCore(TelemetryStore(compacted, create=False)))
    assert got == GOLDEN


def test_cached_core_serves_the_same_bodies(compacted):
    core = EndpointCore(
        TelemetryStore(compacted, create=False), cache=RollupCache(),
    )
    first = digests(core)  # every rollup request misses, then is cached
    assert digests(core) == first == GOLDEN
    assert core.cache.hits > 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        run_campaign(
            CampaignConfig(seed=2021, epochs=8),
            state_dir=Path(scratch) / "state", store_dir=Path(scratch) / "store",
        )
        store = TelemetryStore(Path(scratch) / "store", create=False)
        store.compact()
        for group, value in digests(EndpointCore(store)).items():
            sys.stdout.write(f"    {group!r}: {value!r},\n")
