"""The obs -> store telemetry pipeline (repro/obs/pipeline.py).

Covers the recorder's delta semantics, the campaign heartbeat's
zero-effect-on-result-bytes contract (in-process and through
``campaign run --obs``), survival of ``_obs`` series through
compaction, HTTP serving and ``obs report`` of the self-telemetry, and
the resume-healing rule that protects foreign ``_obs`` walls.
"""

import json
import urllib.request

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.driver import Campaign, result_hash
from repro.cli import main
from repro.errors import CampaignError, ObsError
from repro.obs import MetricsRegistry, observed
from repro.obs.pipeline import MetricsRecorder, sanitize_store_metric
from repro.serve import gateway_background
from repro.store import (
    OBS_BUILDING,
    QueryEngine,
    SeriesKey,
    TelemetryStore,
    compact_store,
)


def small_config(**overrides):
    defaults = dict(
        epochs=4, nodes=3, hours_per_epoch=24, samples_per_hour=2,
        seed=5, storm_period_epochs=3, storm_duration_epochs=1,
        checkpoint_interval=2, epoch_timeout_s=0.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def obs_metrics(store):
    return {k.metric for k in store.keys() if k.building == OBS_BUILDING}


class TestSanitizeStoreMetric:
    def test_plain_names_pass_through(self):
        assert sanitize_store_metric("campaign.epoch_wall_s") == \
            "campaign.epoch_wall_s"

    def test_labels_flatten_into_dotted_segments(self):
        assert sanitize_store_metric(
            "serve.requests{path=/series,status=200}"
        ) == "serve.requests.path.-series.status.200"

    def test_illegal_characters_become_dashes(self):
        sanitized = sanitize_store_metric('weird{q="a b"}')
        assert " " not in sanitized and '"' not in sanitized

    def test_long_names_truncate_with_stable_digest(self):
        long_a = sanitize_store_metric("x" * 100 + "a")
        long_b = sanitize_store_metric("x" * 100 + "b")
        assert len(long_a) <= 64 and len(long_b) <= 64
        assert long_a != long_b
        assert long_a == sanitize_store_metric("x" * 100 + "a")

    def test_result_is_a_valid_series_key_component(self):
        for ugly in ("{}", "9.lives", "a/b:c", "x" * 200):
            SeriesKey(OBS_BUILDING, "serve", 0, sanitize_store_metric(ugly))


class TestRecorder:
    def test_no_registry_records_nothing(self, tmp_path):
        recorder = MetricsRecorder(TelemetryStore(tmp_path))
        assert recorder.record(t=1.0) == 0
        assert recorder.ticks == 0

    def test_first_tick_writes_zero_valued_series(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("idle.counter")
        registry.histogram("idle.hist")
        MetricsRecorder(store, registry=registry).record(t=1.0)
        metrics = obs_metrics(store)
        assert "idle.counter" in metrics
        assert "idle.hist.count" in metrics and "idle.hist.sum" in metrics

    def test_counters_record_deltas_only_on_change(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("jobs").inc(5)
        recorder = MetricsRecorder(store, registry=registry)
        recorder.record(t=1.0)
        recorder.record(t=2.0)  # unchanged: no new sample
        registry.counter("jobs").inc(2)
        recorder.record(t=3.0)
        data = QueryEngine(store).series(
            SeriesKey(OBS_BUILDING, "campaign", 0, "jobs")
        )
        assert list(data["t"]) == [1.0, 3.0]
        assert list(data["value"]) == [5.0, 2.0]

    def test_gauges_record_every_tick(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.gauge("depth").set(4.0)
        recorder = MetricsRecorder(store, registry=registry)
        recorder.record(t=1.0)
        recorder.record(t=2.0)
        data = QueryEngine(store).series(
            SeriesKey(OBS_BUILDING, "campaign", 0, "depth")
        )
        assert list(data["value"]) == [4.0, 4.0]

    def test_histogram_quantiles_land_inside_their_bucket(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.02, 0.03, 0.05, 0.5):
            hist.observe(v)
        MetricsRecorder(store, registry=registry).record(t=1.0)
        engine = QueryEngine(store)
        p50 = engine.latest(SeriesKey(OBS_BUILDING, "campaign", 0, "lat.p50"))
        mean = engine.latest(SeriesKey(OBS_BUILDING, "campaign", 0, "lat.mean"))
        assert 0.01 <= p50["value"] <= 0.1  # 2nd of 4 obs: the 0.1 bucket
        assert mean["value"] == pytest.approx(0.15)

    def test_self_metrics_flow_through_next_tick(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        recorder = MetricsRecorder(store, registry=registry)
        recorder.record(t=1.0)
        recorder.record(t=2.0)
        assert "obs.pipeline.records" in obs_metrics(store)
        assert recorder.ticks == 2

    def test_periodic_mode_records_and_stops(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        recorder = MetricsRecorder(
            store, registry=registry, clock=lambda: 1.0
        )
        recorder.start(interval_s=0.01)
        with pytest.raises(ObsError):
            recorder.start()
        recorder.stop()
        assert recorder.ticks >= 1
        recorder.stop()  # second stop is a no-op

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ObsError):
            MetricsRecorder(TelemetryStore(tmp_path), interval_s=0.0)

    def test_bad_flush_every_rejected(self, tmp_path):
        with pytest.raises(ObsError):
            MetricsRecorder(TelemetryStore(tmp_path), flush_every=0)

    def test_flush_every_buffers_ticks_until_cadence(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.gauge("depth").set(4.0)
        recorder = MetricsRecorder(store, registry=registry, flush_every=3)
        recorder.record(t=1.0)
        recorder.record(t=2.0)
        assert obs_metrics(store) == set()  # still buffered in memory
        recorder.record(t=3.0)  # third tick crosses the cadence
        data = QueryEngine(store).series(
            SeriesKey(OBS_BUILDING, "campaign", 0, "depth")
        )
        assert list(data["t"]) == [1.0, 2.0, 3.0]

    def test_explicit_flush_drains_the_buffer(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        recorder = MetricsRecorder(store, registry=registry, flush_every=10)
        recorder.record(t=1.0)
        assert obs_metrics(store) == set()
        recorder.flush()
        assert "c" in obs_metrics(store)
        recorder.flush()  # empty buffer: a no-op

    def test_stop_flushes_buffered_ticks(self, tmp_path):
        store = TelemetryStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        recorder = MetricsRecorder(store, registry=registry, flush_every=10)
        recorder.record(t=1.0)
        recorder.stop()  # never started: still drains the buffer
        assert "c" in obs_metrics(store)

    def test_record_obs_without_store_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign(small_config(), record_obs=True)


class TestCampaignHeartbeat:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """One observed campaign with heartbeat, plus its plain twin."""
        base = tmp_path_factory.mktemp("heartbeat")
        plain = run_campaign(small_config())
        with observed():
            outcome = run_campaign(
                small_config(), state_dir=base / "state",
                store_dir=base / "store", record_obs=True,
            )
        return plain, outcome, TelemetryStore(base / "store", create=False)

    def test_result_bytes_identical_with_and_without_obs(self, recorded):
        plain, outcome, _ = recorded
        assert result_hash(outcome.result) == result_hash(plain.result)

    def test_cli_obs_run_matches_plain_and_reports(
        self, recorded, tmp_path, capsys
    ):
        plain, _, _ = recorded
        store = str(tmp_path / "store")
        assert main([
            "campaign", "run", "--state-dir", str(tmp_path / "state"),
            "--store", store, "--obs", "--epochs", "4", "--nodes", "3",
            "--hours-per-epoch", "24", "--samples-per-hour", "2",
            "--seed", "5", "--storm-period", "3", "--storm-duration", "1",
            "--checkpoint-interval", "2", "--epoch-timeout-s", "0",
        ]) == 0
        written = json.loads((tmp_path / "state" / "result.json").read_text())
        assert written["sha256"] == result_hash(plain.result)
        capsys.readouterr()

        assert main(["obs", "report", "--store", store]) == 0
        markdown = capsys.readouterr().out
        assert "## Source `campaign`" in markdown
        assert "| epochs run | 4 |" in markdown
        assert main(["obs", "report", "--store", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["sources"]["campaign"]["metrics"]
        assert metrics["campaign.epochs_run"]["total"] == 4.0
        assert metrics["campaign.epoch_wall_s"]["samples"] == 4

    def test_required_series_exist_even_in_a_clean_run(self, recorded):
        _, _, store = recorded
        metrics = obs_metrics(store)
        for required in (
            "campaign.epoch_wall_s",
            "campaign.degradations",
            "campaign.epoch_timeouts",
            "campaign.checkpoint_s.count",
            "campaign.checkpoint_s.sum",
            "campaign.export_s.count",
            "campaign.epochs_run",
            "process.max_rss_kb",
        ):
            assert required in metrics, required

    def test_heartbeat_ticks_on_epoch_boundaries(self, recorded):
        # Each tick is stamped at the completed epoch's start hour.
        _, _, store = recorded
        data = QueryEngine(store).series(
            SeriesKey(OBS_BUILDING, "campaign", 0, "campaign.epoch")
        )
        assert list(data["t"]) == [0.0, 24.0, 48.0, 72.0]
        assert list(data["value"]) == [1.0, 2.0, 3.0, 4.0]

    def test_obs_series_survive_compaction(self, recorded):
        _, _, store = recorded
        compact_store(store)
        key = SeriesKey(OBS_BUILDING, "campaign", 0, "campaign.epochs_run")
        hourly = QueryEngine(store).series(key, resolution="hourly")
        assert hourly["t"].size > 0
        assert float(hourly["count"].sum()) == 4.0

    def test_obs_series_served_over_http(self, recorded):
        _, _, store = recorded
        gateway, _thread = gateway_background(store)
        base = f"http://127.0.0.1:{gateway.port}"
        try:
            series = json.loads(urllib.request.urlopen(
                base + "/series?building=_obs&wall=campaign&node=0"
                "&metric=campaign.epoch_wall_s"
            ).read())
            assert series["rows"] == 4
            healthz = json.loads(
                urllib.request.urlopen(base + "/healthz").read()
            )
            assert healthz["status"] == "ok"
            assert healthz["campaign"]["last_epoch"] == 4.0
            metrics_text = urllib.request.urlopen(base + "/metrics").read()
            assert b"# TYPE serve_requests counter" in metrics_text
        finally:
            gateway.shutdown()


class TestResumeHealing:
    def test_resume_truncates_campaign_obs_but_not_foreign_walls(
        self, tmp_path
    ):
        state_dir, store_dir = tmp_path / "state", tmp_path / "store"
        with observed():
            run_campaign(
                small_config(), state_dir=state_dir, store_dir=store_dir,
                record_obs=True,
            )
        store = TelemetryStore(store_dir, create=False)
        # A serve-tier recorder using wall-clock hours writes far in
        # the "future" relative to campaign epoch-time.
        foreign = SeriesKey(OBS_BUILDING, "serve", 0, "serve.requests")
        store.append(foreign, [500_000.0], [3.0])
        campaign, state = Campaign.resume(
            state_dir, store_dir=store_dir, record_obs=True
        )
        # Checkpoint interval 2 on a 4-epoch campaign resumes at 4;
        # shrink the horizon so the boundary actually cuts something.
        healed = TelemetryStore(store_dir, create=False)
        assert QueryEngine(healed).latest(foreign)["value"] == 3.0
        heartbeats = QueryEngine(healed).series(
            SeriesKey(OBS_BUILDING, "campaign", 0, "campaign.epoch")
        )
        assert all(t < state.epoch * 24.0 for t in heartbeats["t"])

    def test_resume_from_midpoint_replays_heartbeats(self, tmp_path):
        state_dir, store_dir = tmp_path / "state", tmp_path / "store"
        boom = {"armed": False}

        def hook(epoch):
            if boom["armed"] and epoch == 2:
                raise KeyboardInterrupt  # simulate a hard stop

        boom["armed"] = True
        with observed():
            try:
                run_campaign(
                    small_config(), state_dir=state_dir,
                    store_dir=store_dir, record_obs=True, epoch_hook=hook,
                )
            except KeyboardInterrupt:
                pass
        boom["armed"] = False
        with observed():
            campaign, state = Campaign.resume(
                state_dir, store_dir=store_dir, record_obs=True
            )
            outcome = campaign.run(state)
        assert outcome.completed
        plain = run_campaign(small_config())
        assert result_hash(outcome.result) == result_hash(plain.result)
        data = QueryEngine(
            TelemetryStore(store_dir, create=False)
        ).series(SeriesKey(OBS_BUILDING, "campaign", 0, "campaign.epoch"))
        assert list(data["t"]) == [0.0, 24.0, 48.0, 72.0]
        assert list(data["value"]) == [1.0, 2.0, 3.0, 4.0]
