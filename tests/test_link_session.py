"""Unit tests for the wall-session simulator and deployment planner."""

import pytest

from repro.acoustics import StructureGeometry, paper_structures
from repro.errors import ProtocolError
from repro.link import (
    DeploymentError,
    PlacedNode,
    PowerUpLink,
    SessionTiming,
    WallSession,
    estimate_survey,
    plan_stations,
)
from repro.materials import get_concrete
from repro.node import EcoCapsule, Environment


def make_budget(length=8.0, thickness=0.20):
    wall = StructureGeometry(
        "session wall", length=length, thickness=thickness,
        medium=get_concrete("NC").medium,
    )
    return PowerUpLink(wall)


def make_nodes(distances, seed=0):
    return [
        PlacedNode(
            capsule=EcoCapsule(
                node_id=i + 1,
                environment=Environment(temperature=20.0 + i),
                seed=seed + i,
            ),
            distance=d,
        )
        for i, d in enumerate(distances)
    ]


class TestSessionTiming:
    def test_slot_duration_positive(self):
        timing = SessionTiming()
        assert timing.slot_duration > 0.0

    def test_faster_uplink_shortens_slots(self):
        slow = SessionTiming(uplink_bitrate=1e3)
        fast = SessionTiming(uplink_bitrate=8e3)
        assert fast.slot_duration < slow.slot_duration


class TestWallSession:
    def test_full_session_reads_everyone(self):
        session = WallSession(
            budget=make_budget(),
            nodes=make_nodes([0.5, 1.0, 1.5, 2.0]),
            tx_voltage=250.0,
            seed=3,
        )
        result = session.run()
        assert result.coverage == 1.0
        assert set(result.reports) == {1, 2, 3, 4}
        for reports in result.reports.values():
            assert len(reports) == 3  # three channels each
        assert result.elapsed > 0.0
        assert result.reads_per_second > 0.0

    def test_sensor_out_of_its_range_loses_only_that_read(self):
        # Node 2 sits at 500 C, outside its temperature sensor's range,
        # which refuses the read; every other reading is delivered.
        nodes = make_nodes([0.5, 1.0, 1.5])
        nodes[1] = PlacedNode(
            capsule=EcoCapsule(
                node_id=2, environment=Environment(temperature=500.0), seed=1
            ),
            distance=1.0,
        )
        result = WallSession(
            budget=make_budget(), nodes=nodes, tx_voltage=250.0, seed=3
        ).run()
        channels = {
            node_id: sorted(r.channel for r in reports)
            for node_id, reports in result.reports.items()
        }
        assert channels == {
            1: ["humidity", "strain", "temperature"],
            2: ["humidity", "strain"],
            3: ["humidity", "strain", "temperature"],
        }

    def test_out_of_range_nodes_stay_dark(self):
        budget = make_budget()
        reach = budget.max_range(50.0)
        session = WallSession(
            budget=budget,
            nodes=make_nodes([reach * 0.5, reach * 3.0]),
            tx_voltage=50.0,
            seed=4,
        )
        result = session.run()
        assert result.powered_nodes == [1]
        assert result.dark_nodes == [2]
        assert result.coverage == pytest.approx(0.5)

    def test_all_dark_session(self):
        budget = make_budget()
        session = WallSession(
            budget=budget,
            nodes=make_nodes([7.5, 7.9]),
            tx_voltage=20.0,
            seed=5,
        )
        result = session.run()
        assert result.powered_nodes == []
        assert result.reports == {}
        assert result.slots_used == 0

    def test_energy_accounting(self):
        session = WallSession(
            budget=make_budget(), nodes=make_nodes([0.5, 1.0]), seed=6
        )
        result = session.run()
        for node_id in result.powered_nodes:
            assert result.node_energy[node_id] > 0.0
            # ~360 uW for the session duration.
            assert result.node_energy[node_id] == pytest.approx(
                360e-6 * result.elapsed, rel=0.05
            )

    def test_requires_nodes(self):
        with pytest.raises(ProtocolError):
            WallSession(budget=make_budget(), nodes=[])

    def test_more_nodes_use_more_slots(self):
        small = WallSession(
            budget=make_budget(), nodes=make_nodes([0.5, 1.0]), seed=7
        ).run()
        large = WallSession(
            budget=make_budget(),
            nodes=make_nodes([0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4], seed=50),
            seed=7,
        ).run()
        assert large.slots_used >= small.slots_used


class TestDeploymentPlanner:
    def test_single_station_for_a_short_wall(self):
        budget = make_budget(length=4.0)
        plan = plan_stations(budget, tx_voltage=250.0)
        assert len(plan.stations) == 1
        assert plan.coverage_fraction() == pytest.approx(1.0)

    def test_long_wall_needs_more_stations(self):
        structures = {s.name: s for s in paper_structures()}
        wall = structures["S3 common wall"]  # 20 m long
        plan = plan_stations(PowerUpLink(wall), tx_voltage=250.0)
        assert len(plan.stations) >= 2
        assert plan.coverage_fraction() == pytest.approx(1.0)
        assert plan.uncovered_gaps() == []

    def test_low_voltage_needs_more_stations(self):
        structures = {s.name: s for s in paper_structures()}
        wall = structures["S3 common wall"]
        budget = PowerUpLink(wall)
        high = plan_stations(budget, tx_voltage=250.0)
        low = plan_stations(budget, tx_voltage=100.0)
        assert len(low.stations) > len(high.stations)

    def test_no_coverage_raises(self):
        budget = make_budget()
        with pytest.raises(DeploymentError):
            plan_stations(budget, tx_voltage=1.0)

    def test_margin_validation(self):
        with pytest.raises(DeploymentError):
            plan_stations(make_budget(), margin=0.0)


class TestSurveyEstimate:
    def test_scales_with_nodes(self):
        plan = plan_stations(make_budget(), tx_voltage=250.0)
        timing = SessionTiming()
        small = estimate_survey(plan, [2], timing.slot_duration)
        large = estimate_survey(plan, [10], timing.slot_duration)
        assert large.total_time > small.total_time
        assert large.air_time == pytest.approx(5.0 * small.air_time)

    def test_station_count_mismatch_raises(self):
        plan = plan_stations(make_budget(), tx_voltage=250.0)
        with pytest.raises(DeploymentError):
            estimate_survey(plan, [1, 2, 3], 0.1)

    def test_walk_time_included(self):
        plan = plan_stations(make_budget(), tx_voltage=250.0)
        estimate = estimate_survey(
            plan, [4], 0.05, walk_time_per_station=120.0
        )
        assert estimate.total_time >= 120.0
