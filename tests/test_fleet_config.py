"""Units for the fleet's deterministic foundations (ISSUE 8).

Seed derivation, roster validation, backoff timing and the worker-fault
plan semantics -- everything the supervisor integration tests lean on,
checked without spawning a single process.
"""

import pytest

from repro.campaign import CampaignConfig
from repro.errors import FaultConfigError, FleetError
from repro.faults import UNBOUNDED, WorkerFault, WorkerFaultPlan
from repro.fleet import (
    FleetConfig,
    backoff_delay,
    building_names,
    derive_shard_seed,
)


class TestBuildingNames:
    def test_default_roster(self):
        assert building_names(3) == ("b001", "b002", "b003")

    def test_width_grows_past_999(self):
        names = building_names(1000)
        assert names[0] == "b0001" and names[-1] == "b1000"

    def test_rejects_zero(self):
        with pytest.raises(FleetError, match="count must be >= 1"):
            building_names(0)


class TestShardSeeds:
    def test_pinned_value(self):
        # The derivation is part of the determinism contract: changing
        # it silently invalidates every committed fleet hash.
        assert derive_shard_seed(2021, "b001") == 4550587057460074342

    def test_distinct_per_building_and_seed(self):
        seeds = {derive_shard_seed(2021, b) for b in building_names(64)}
        assert len(seeds) == 64
        assert derive_shard_seed(2022, "b001") != derive_shard_seed(
            2021, "b001"
        )

    def test_independent_of_roster_and_workers(self):
        # The seed depends on (fleet seed, name) only -- adding
        # buildings or changing worker counts cannot shift it.
        small = FleetConfig(buildings=building_names(2), workers=1)
        large = FleetConfig(buildings=building_names(16), workers=8)
        assert small.shard_seed("b001") == large.shard_seed("b001")

    def test_shard_config_replaces_only_the_seed(self):
        config = FleetConfig(
            buildings=("b001",),
            campaign=CampaignConfig(epochs=5, nodes=3, seed=999),
        )
        shard = config.shard_config("b001")
        assert shard.seed == derive_shard_seed(config.seed, "b001")
        assert (shard.epochs, shard.nodes) == (5, 3)

    def test_unknown_building_rejected(self):
        config = FleetConfig(buildings=("b001",))
        with pytest.raises(FleetError, match="unknown building"):
            config.shard_seed("b999")


class TestBackoff:
    def test_exponential_then_capped(self):
        delays = [backoff_delay(n, 0.25, 5.0) for n in range(0, 7)]
        assert delays == [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 5.0]

    def test_negative_failures_mean_no_wait(self):
        assert backoff_delay(-3, 0.25, 5.0) == 0.0


class TestFleetConfig:
    def test_roster_stored_sorted(self):
        config = FleetConfig(buildings=("b2", "b1", "b3"))
        assert config.buildings == ("b1", "b2", "b3")

    def test_duplicates_rejected(self):
        with pytest.raises(FleetError, match="duplicate"):
            FleetConfig(buildings=("b1", "b1"))

    def test_reserved_namespace_rejected(self):
        with pytest.raises(FleetError, match="reserved"):
            FleetConfig(buildings=("_obs",))

    def test_invalid_store_component_rejected(self):
        with pytest.raises(FleetError):
            FleetConfig(buildings=("no/slashes",))

    def test_empty_roster_rejected(self):
        with pytest.raises(FleetError, match="at least one building"):
            FleetConfig(buildings=())

    def test_supervision_knob_validation(self):
        with pytest.raises(FleetError, match="workers"):
            FleetConfig(buildings=("b1",), workers=0)
        with pytest.raises(FleetError, match="max_restarts"):
            FleetConfig(buildings=("b1",), max_restarts=0)
        with pytest.raises(FleetError, match="backoff_base_s"):
            FleetConfig(buildings=("b1",), backoff_base_s=0.0)
        with pytest.raises(FleetError, match="heartbeat_timeout_s"):
            FleetConfig(buildings=("b1",), heartbeat_timeout_s=float("nan"))
        with pytest.raises(FleetError, match="workers"):
            FleetConfig(buildings=("b1",), workers=True)
        with pytest.raises(FleetError, match="backoff_base_s"):
            FleetConfig(buildings=("b1",), backoff_base_s="0.25")

    def test_round_trip(self):
        config = FleetConfig(
            buildings=building_names(4),
            campaign=CampaignConfig(epochs=3, nodes=2),
            seed=7,
            workers=2,
            max_restarts=5,
        )
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        payload = FleetConfig(buildings=("b1",)).to_dict()
        payload["shards"] = 4
        with pytest.raises(FleetError, match="unknown fleet-config"):
            FleetConfig.from_dict(payload)
        del payload["shards"], payload["buildings"]
        with pytest.raises(FleetError, match="missing fleet-config"):
            FleetConfig.from_dict(payload)


class TestWorkerFault:
    def test_times_defaults_per_action(self):
        assert WorkerFault("b1", 0, "kill").times == 1
        assert WorkerFault("b1", 0, "hang").times == 1
        assert WorkerFault("b1", 0, "poison").times == UNBOUNDED

    def test_fires_gates_on_attempt(self):
        fault = WorkerFault("b1", 2, "kill", times=2)
        assert fault.fires("b1", 2, 0)
        assert fault.fires("b1", 2, 1)
        assert not fault.fires("b1", 2, 2)  # third attempt runs clean
        assert not fault.fires("b1", 1, 0)
        assert not fault.fires("b2", 2, 0)

    def test_unbounded_poison_never_expires(self):
        fault = WorkerFault("b1", 0, "poison")
        assert all(fault.fires("b1", 0, attempt) for attempt in range(50))

    def test_validation(self):
        with pytest.raises(FaultConfigError, match="action"):
            WorkerFault("b1", 0, "explode")
        with pytest.raises(FaultConfigError, match="negative"):
            WorkerFault("b1", -1, "kill")
        with pytest.raises(FaultConfigError, match="times"):
            WorkerFault("b1", 0, "kill", times=-2)


class TestWorkerFaultPlan:
    def test_first_matching_fault_wins(self):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b1", 0, "kill"),
            WorkerFault("b1", 0, "poison"),
        ))
        assert plan.matching("b1", 0, 0).action == "kill"
        assert plan.matching("b1", 0, 5).action == "poison"  # kill expired
        assert plan.matching("b2", 0, 0) is None

    def test_for_building_filters(self):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b1", 0, "kill"),
            WorkerFault("b2", 1, "poison"),
        ))
        sub = plan.for_building("b2")
        assert [f.building for f in sub.faults] == ["b2"]

    def test_seeded_is_reproducible(self):
        kwargs = dict(
            buildings=building_names(16), epochs=8,
            kill_rate=0.3, hang_rate=0.1, poison_rate=0.1,
        )
        assert (
            WorkerFaultPlan.seeded(5, **kwargs)
            == WorkerFaultPlan.seeded(5, **kwargs)
        )
        assert (
            WorkerFaultPlan.seeded(5, **kwargs)
            != WorkerFaultPlan.seeded(6, **kwargs)
        )

    def test_json_round_trip(self, tmp_path):
        plan = WorkerFaultPlan(faults=(
            WorkerFault("b1", 0, "kill", times=2),
            WorkerFault("b2", 3, "poison"),
        ))
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        assert WorkerFaultPlan.from_json_file(path) == plan

    def test_from_dict_is_strict(self):
        with pytest.raises(FaultConfigError, match="unknown"):
            WorkerFaultPlan.from_dict({"faults": [], "extra": 1})
        with pytest.raises(FaultConfigError, match="schema"):
            WorkerFaultPlan.from_dict({"schema": "v0", "faults": []})
        with pytest.raises(FaultConfigError, match="missing"):
            WorkerFault.from_dict({"building": "b1"})
