#!/usr/bin/env bash
# Continuous-integration gate for the EcoCapsule reproduction.
#
# Stage 1: the full tier-1 test suite (unit + golden-regression +
#          determinism layers under tests/).
# Stage 2: a seeded quick sweep of every registered experiment through
#          the parallel runtime, into a throwaway directory, followed by
#          manifest + result-file validation.
# Stage 3: observability smoke -- one experiment under --obs, asserting
#          the manifest carries a profile block and the exported Chrome
#          trace validates against the trace-event schema.
# Stage 4: fault-injection smoke -- the fault sweep twice under the
#          same --faults plan at a fixed seed, asserting the degraded
#          sessions still produce valid manifests and that the two
#          runs' result payloads are byte-identical (determinism).
# Stage 5: crash-safety smoke -- a short campaign is SIGKILLed
#          mid-epoch, `campaign resume` finishes it, and the resumed
#          result's sha256 must equal an uninterrupted reference run's.
# Stage 6: telemetry-store smoke -- a short campaign exports into a
#          store (--store), the store is compacted and queried through
#          both the CLI and the HTTP gateway (`store serve`) on an
#          ephemeral port, and both answers must match an in-memory
#          reference computed straight from the store.  The campaign's
#          result.json is then ingested under a new building while the
#          gateway runs, and its raw /aggregate and /stats bodies must
#          equal a fresh in-process core's.  The gateway's
#          parity matrix, keep-alive, SIGTERM drain and bind errors are
#          pinned by tests/test_serve_gateway.py in stage 1.
# Stage 7: PHY benchmark smoke -- a shrunk scalar-vs-batched Monte-Carlo
#          workload (REPRO_PHY_BENCH_SMOKE=1) into a throwaway
#          BENCH file, asserting bit-identical BERs and a >= 3x smoke
#          speedup (the committed BENCH_phy.json full run shows >= 10x).
# Stage 8: scalar/batch equivalence cross-check -- the two equivalence
#          suites run under two PYTHONHASHSEED values and the batch
#          engine's BER is byte-compared against the scalar engine's
#          across hash seeds; any divergence beyond the documented
#          tolerances (docs/PERFORMANCE.md) fails the gate.
# Stage 9: obs-pipeline smoke -- the same short campaign runs with and
#          without --obs and the two result.json sha256 digests must be
#          byte-identical; the observed run's _obs self-telemetry is
#          then queried over HTTP (/series, /healthz, /metrics) and
#          summarised by `obs report`; finally the `obs trend` gate
#          runs against the committed BENCH_*.json artifacts (must
#          pass) and against an injected regression (must fail).
# Stage 10: fleet smoke -- the same small fleet runs on 1 worker and on
#          a 4-worker pool (sha256 must match); the supervisor is then
#          SIGKILLed mid-epoch and `fleet resume` must converge on the
#          same sha256; an injected poison shard must exit 4 with the
#          quarantine recorded in the result body and `fleet status`;
#          the fleet benchmark smoke closes the stage.
# Stage 11: storage-chaos smoke -- `chaos run` drives a campaign drill
#          under a seeded ENOSPC/torn-write/dropped-rename plan and must
#          exit 0 with the drill sha256 equal to the fault-free clean
#          run's; `chaos verify` re-derives the same verdict; then a
#          byte is flipped in the drill's result.json and `chaos verify`
#          MUST go red (non-zero) -- the oracle has teeth.
#
# Usage:  scripts/ci.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== stage 1: tier-1 test suite =="
python -m pytest -x -q "$@"

echo "== stage 2: full experiment sweep (quick params) =="
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

python -m repro.cli experiments run --all --jobs 2 --quick --out "${OUT_DIR}"

RUN_DIR="$(find "${OUT_DIR}" -mindepth 1 -maxdepth 1 -type d ! -name '.cache' | head -n 1)"
python -m repro.cli experiments validate "${RUN_DIR}"

echo "== stage 3: observability smoke (--obs) =="
python -m repro.cli experiments run --only fig13 --jobs 0 --quick --obs \
    --out "${OUT_DIR}/obs"

OBS_RUN_DIR="$(find "${OUT_DIR}/obs" -mindepth 1 -maxdepth 1 -type d ! -name '.cache' | head -n 1)"
python - "${OBS_RUN_DIR}" <<'PY'
import json
import sys
from pathlib import Path

from repro.obs import validate_chrome_trace, validate_profile
from repro.runtime import load_manifest

run_dir = Path(sys.argv[1])
manifest = load_manifest(run_dir)
assert "obs" in manifest, "observed run produced no manifest obs block"
for entry in manifest["experiments"]:
    assert validate_profile(entry.get("profile")), (
        f"{entry['name']}: missing or malformed profile"
    )
trace = json.loads((run_dir / manifest["obs"]["trace_file"]).read_text())
problems = validate_chrome_trace(trace)
assert not problems, f"trace.json failed validation: {problems}"
print(
    f"obs smoke OK: {len(manifest['experiments'])} profile(s), "
    f"{manifest['obs']['spans']} span(s), "
    f"{manifest['obs']['warnings']} warning(s)"
)
PY

python -m repro.cli experiments stats "${OBS_RUN_DIR}" > /dev/null
python -m repro.cli experiments trace "${OBS_RUN_DIR}" > /dev/null

echo "== stage 4: fault-injection smoke (--faults) =="
PLAN_FILE="${OUT_DIR}/plan.json"
python - "${PLAN_FILE}" <<'PY'
import sys

from repro.faults import FaultPlan

# A hostile but survivable channel; seeded so both runs replay it.
FaultPlan(
    seed=17,
    uplink_ber=0.005,
    reply_loss_rate=0.15,
    brownout_rate=0.10,
    reader_dropout_rate=0.30,
    slot_jitter_rate=0.05,
    stuck_sensor_rate=0.10,
).to_json_file(sys.argv[1])
PY

for attempt in a b; do
    python -m repro.cli experiments run --only fault_sweep --jobs 0 --quick \
        --force --faults "${PLAN_FILE}" --out "${OUT_DIR}/faults-${attempt}"
    FAULT_RUN_DIR="$(find "${OUT_DIR}/faults-${attempt}" -mindepth 1 -maxdepth 1 -type d ! -name '.cache' | head -n 1)"
    python -m repro.cli experiments validate "${FAULT_RUN_DIR}"
done

python - "${OUT_DIR}" <<'PY'
import json
import sys
from pathlib import Path

out_dir = Path(sys.argv[1])
payloads = []
for attempt in ("a", "b"):
    run_dir = next(
        p for p in (out_dir / f"faults-{attempt}").iterdir()
        if p.is_dir() and p.name != ".cache"
    )
    payloads.append((run_dir / "fault_sweep.json").read_bytes())
assert payloads[0] == payloads[1], (
    "fault sweep is not deterministic across runs at the same seed/plan"
)
result = json.loads(payloads[0])["result"]
points = result["points"]
assert any(p["retries"] > 0 or p["degraded"] for p in points), (
    "fault smoke injected nothing: no retries and no degradation recorded"
)
degraded = sum(1 for p in points if p["degraded"])
print(
    f"fault smoke OK: {len(points)} point(s), {degraded} degraded, "
    "two runs byte-identical"
)
PY

echo "== stage 5: campaign crash-safety smoke (SIGKILL + resume) =="
# Reference: the same short campaign, uninterrupted, in memory.
REF_HASH="$(python - <<'PY'
from repro.campaign import CampaignConfig, result_hash, run_campaign

config = CampaignConfig(
    epochs=5, nodes=3, hours_per_epoch=24, seed=11,
    storm_period_epochs=2, storm_duration_epochs=1, epoch_timeout_s=0.0,
)
print(result_hash(run_campaign(config).result))
PY
)"

STATE_DIR="${OUT_DIR}/campaign"
python -m repro.cli campaign run --state-dir "${STATE_DIR}" \
    --epochs 5 --nodes 3 --hours-per-epoch 24 --seed 11 \
    --storm-period 2 --storm-duration 1 --epoch-sleep-s 0.4 \
    > /dev/null 2>&1 &
CAMPAIGN_PID=$!

# Let it checkpoint a couple of epochs, then kill -9 mid-epoch (the
# sleep seam guarantees it dies inside an epoch, not between runs).
KILL_MARKER="${STATE_DIR}/checkpoints/epoch-000002.json"
for _ in $(seq 1 600); do
    [ -f "${KILL_MARKER}" ] && break
    if ! kill -0 "${CAMPAIGN_PID}" 2>/dev/null; then
        echo "campaign exited before it could be killed" >&2
        exit 1
    fi
    sleep 0.1
done
[ -f "${KILL_MARKER}" ] || { echo "no checkpoint appeared in time" >&2; exit 1; }
kill -9 "${CAMPAIGN_PID}" 2>/dev/null || true
wait "${CAMPAIGN_PID}" 2>/dev/null || true

if [ -f "${STATE_DIR}/result.json" ]; then
    echo "campaign finished before the kill; nothing was tested" >&2
    exit 1
fi

python -m repro.cli campaign status --state-dir "${STATE_DIR}"
python -m repro.cli campaign resume --state-dir "${STATE_DIR}"

RESUMED_HASH="$(python - "${STATE_DIR}/result.json" <<'PY'
import json
import sys

print(json.load(open(sys.argv[1]))["sha256"])
PY
)"
if [ "${RESUMED_HASH}" != "${REF_HASH}" ]; then
    echo "resumed campaign diverged from the uninterrupted reference:" >&2
    echo "  resumed:   ${RESUMED_HASH}" >&2
    echo "  reference: ${REF_HASH}" >&2
    exit 1
fi
echo "campaign smoke OK: SIGKILL mid-epoch + resume == uninterrupted (${RESUMED_HASH})"

echo "== stage 6: telemetry-store smoke (CLI + HTTP vs reference) =="
STORE_DIR="${OUT_DIR}/store"
python -m repro.cli campaign run --state-dir "${OUT_DIR}/store-campaign" \
    --store "${STORE_DIR}" \
    --epochs 4 --nodes 3 --hours-per-epoch 24 --seed 11 \
    --epoch-timeout-s 0 > /dev/null
python -m repro.cli store compact --store "${STORE_DIR}" > /dev/null

CLI_ANSWER="$(python -m repro.cli store query --store "${STORE_DIR}" \
    --metric strain --agg mean --resolution daily --json)"

SERVE_LOG="${OUT_DIR}/store-serve.log"
python -m repro.cli store serve --store "${STORE_DIR}" --port 0 \
    > "${SERVE_LOG}" 2>&1 &
SERVE_PID=$!
trap 'kill "${SERVE_PID}" 2>/dev/null || true; rm -rf "${OUT_DIR}"' EXIT

BASE_URL=""
for _ in $(seq 1 100); do
    BASE_URL="$(sed -n 's/^serving .* on \(http:\/\/[^ ]*\)$/\1/p' "${SERVE_LOG}" | head -n 1)"
    [ -n "${BASE_URL}" ] && break
    sleep 0.1
done
[ -n "${BASE_URL}" ] || { echo "store serve never announced its port" >&2; exit 1; }

python - "${STORE_DIR}" "${BASE_URL}" <<PY
import json
import sys
import urllib.request

from repro.store import QueryEngine, TelemetryStore

store_dir, base_url = sys.argv[1], sys.argv[2]
engine = QueryEngine(TelemetryStore(store_dir, create=False))
reference = engine.aggregate("strain", "mean", resolution="daily")
assert reference["series"] > 0, "store smoke exported no strain series"

cli = json.loads('''${CLI_ANSWER}''')
assert cli == json.loads(json.dumps(reference)), (
    f"CLI query diverged from in-memory reference: {cli} != {reference}"
)

url = base_url + "/aggregate?metric=strain&agg=mean&resolution=daily"
with urllib.request.urlopen(url, timeout=10.0) as response:
    http = json.load(response)
assert http == json.loads(json.dumps(reference)), (
    f"HTTP query diverged from in-memory reference: {http} != {reference}"
)

with urllib.request.urlopen(base_url + "/stats", timeout=10.0) as response:
    stats = json.load(response)
assert stats == json.loads(json.dumps(engine.store.stats())), (
    "HTTP /stats diverged from the in-memory store stats"
)
print(
    f"store smoke OK: {reference['series']} strain series, "
    f"CLI == HTTP == reference ({reference['value']:.3f})"
)
PY

# The running gateway must see data written after it started: ingest
# the campaign's result.json under a new building while it serves.
python -m repro.cli store ingest --store "${STORE_DIR}" --building late \
    "${OUT_DIR}/store-campaign/result.json" > /dev/null
python - "${STORE_DIR}" "${BASE_URL}" <<'PY'
import json
import sys
import urllib.request
from urllib.parse import parse_qsl, urlsplit

from repro.obs import MetricsRegistry
from repro.serve import EndpointCore
from repro.store import TelemetryStore

store_dir, base_url = sys.argv[1], sys.argv[2]
core = EndpointCore(
    TelemetryStore(store_dir, create=False), registry=MetricsRegistry()
)
served = {}
for target in ("/aggregate?metric=acceleration&agg=count&building=late",
               "/stats"):
    with urllib.request.urlopen(base_url + target, timeout=10.0) as response:
        served[target] = response.read()
    parts = urlsplit(target)
    fresh = core.handle("GET", parts.path, dict(parse_qsl(parts.query)))
    assert fresh.status == 200 and served[target] == fresh.body, (
        f"running gateway's {target} diverged from a fresh core after ingest"
    )
count = json.loads(served["/aggregate?metric=acceleration&agg=count&building=late"])
assert count["series"] > 0 and count["value"] > 0, count
print(
    f"store freshness OK: {count['value']:.0f} acceleration samples ingested "
    "under a running gateway, served == fresh core"
)
PY
kill "${SERVE_PID}" 2>/dev/null || true
wait "${SERVE_PID}" 2>/dev/null || true
trap 'rm -rf "${OUT_DIR}"' EXIT

echo "== stage 7: PHY benchmark smoke (batched vs scalar) =="
REPRO_PHY_BENCH_SMOKE=1 REPRO_BENCH_OUT="${OUT_DIR}/BENCH_phy_smoke.json" \
    python -m pytest benchmarks/test_phy_bench.py --benchmark-only \
    --benchmark-disable-gc -q
python - "${OUT_DIR}/BENCH_phy_smoke.json" <<'PY'
import json
import sys

bench = json.load(open(sys.argv[1]))
assert bench["schema"] == "repro/bench-phy/v1"
assert bench["smoke"] is True
assert bench["ber_identical_scalar_vs_batch"] is True
print(f"phy bench smoke OK: {bench['speedup_batch_vs_scalar']}x batch")
PY

echo "== stage 8: scalar/batch equivalence cross-check (hash-seed sweep) =="
for HASHSEED in 0 31337; do
    PYTHONHASHSEED="${HASHSEED}" python -m pytest -q \
        tests/test_phy_batch_equivalence.py \
        tests/test_acoustics_batch_equivalence.py \
        tests/test_batch_golden_regression.py
done

python - <<'PY'
# Cross-hash-seed determinism: the batch engine's BER must be byte-
# identical to the scalar engine's, and to itself, regardless of
# PYTHONHASHSEED (subprocesses so each run gets a fresh hash seed).
import json
import subprocess
import sys

SCRIPT = r"""
import json, sys
from repro.link.simulation import UplinkBasebandSimulator
from repro.phy.batch import use_engine
out = {}
for engine in ("scalar", "batch"):
    with use_engine(engine):
        out[engine] = [
            UplinkBasebandSimulator(seed=0x5EC0).measure_ber(
                snr, total_bits=2_000, packet_bits=100
            )
            for snr in (2.0, 3.5, 6.0)
        ]
json.dump(out, sys.stdout)
"""

answers = []
for hashseed in ("0", "31337"):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": hashseed, "PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    payload = json.loads(proc.stdout)
    assert payload["scalar"] == payload["batch"], (
        f"engines diverged under PYTHONHASHSEED={hashseed}: {payload}"
    )
    answers.append(proc.stdout)
assert answers[0] == answers[1], (
    "BER stream is hash-seed sensitive: " + repr(answers)
)
print("equivalence cross-check OK: scalar == batch across hash seeds")
PY

echo "== stage 9: obs-pipeline smoke (self-telemetry + trend gate) =="
OBS_DIR="${OUT_DIR}/obs-pipeline"
for arm in plain observed; do
    OBS_FLAG=""
    [ "${arm}" = "observed" ] && OBS_FLAG="--obs"
    python -m repro.cli campaign run \
        --state-dir "${OBS_DIR}/${arm}-state" \
        --store "${OBS_DIR}/${arm}-store" ${OBS_FLAG} \
        --epochs 4 --nodes 3 --hours-per-epoch 24 --seed 11 \
        --epoch-timeout-s 0 > /dev/null
done

python - "${OBS_DIR}" <<'PY'
import json
import sys
from pathlib import Path

obs_dir = Path(sys.argv[1])
digests = {
    arm: json.loads((obs_dir / f"{arm}-state" / "result.json").read_text())["sha256"]
    for arm in ("plain", "observed")
}
assert digests["plain"] == digests["observed"], (
    f"--obs changed the result bytes: {digests}"
)
print(f"obs zero-effect OK: sha256 {digests['plain'][:16]}... both arms")
PY

python -m repro.cli obs report --store "${OBS_DIR}/observed-store" > /dev/null
python -m repro.cli obs report --store "${OBS_DIR}/observed-store" --json \
    > "${OBS_DIR}/report.json"
python - "${OBS_DIR}/report.json" <<'PY'
import json
import sys

report = json.load(open(sys.argv[1]))
assert "campaign" in report["sources"], "obs report lost the campaign wall"
metrics = report["sources"]["campaign"]["metrics"]
for required in ("campaign.epoch_wall_s", "campaign.epochs_run"):
    assert required in metrics, f"obs report missing {required}"
print(f"obs report OK: {report['sources']['campaign']['series']} _obs series")
PY

OBS_SERVE_LOG="${OUT_DIR}/obs-serve.log"
python -m repro.cli store serve --store "${OBS_DIR}/observed-store" --port 0 \
    > "${OBS_SERVE_LOG}" 2>&1 &
OBS_SERVE_PID=$!
trap 'kill "${OBS_SERVE_PID}" 2>/dev/null || true; rm -rf "${OUT_DIR}"' EXIT

OBS_BASE_URL=""
for _ in $(seq 1 100); do
    OBS_BASE_URL="$(sed -n 's/^serving .* on \(http:\/\/[^ ]*\)$/\1/p' "${OBS_SERVE_LOG}" | head -n 1)"
    [ -n "${OBS_BASE_URL}" ] && break
    sleep 0.1
done
[ -n "${OBS_BASE_URL}" ] || { echo "store serve never announced its port" >&2; exit 1; }

python - "${OBS_BASE_URL}" <<'PY'
import json
import sys
import urllib.request

base = sys.argv[1]
with urllib.request.urlopen(
    base + "/series?building=_obs&wall=campaign&node=0"
    "&metric=campaign.epoch_wall_s", timeout=10.0
) as response:
    series = json.load(response)
assert series["rows"] == 4, f"expected 4 heartbeat ticks, got {series['rows']}"

with urllib.request.urlopen(base + "/healthz", timeout=10.0) as response:
    healthz = json.load(response)
assert healthz["status"] == "ok"
assert healthz["campaign"]["last_epoch"] == 4.0, healthz

with urllib.request.urlopen(base + "/metrics", timeout=10.0) as response:
    text = response.read().decode("utf-8")
assert "# TYPE serve_requests counter" in text, "no request counters exposed"
assert 'serve_request_s_bucket{path="/series"' in text, "no latency histogram"
print(f"obs serving OK: {series['rows']} ticks over HTTP, /healthz + /metrics live")
PY
kill "${OBS_SERVE_PID}" 2>/dev/null || true
wait "${OBS_SERVE_PID}" 2>/dev/null || true
trap 'rm -rf "${OUT_DIR}"' EXIT

REPRO_OBS_BENCH_SMOKE=1 REPRO_BENCH_OUT="${OUT_DIR}/BENCH_obs_smoke.json" \
    python -m pytest benchmarks/test_obs_bench.py --benchmark-only \
    --benchmark-disable-gc -q

python -m repro.cli obs trend --bench-dir . --history BENCH_HISTORY.jsonl

REGRESS_DIR="${OUT_DIR}/obs-regress"
mkdir -p "${REGRESS_DIR}"
cp BENCH_phy.json BENCH_store.json "${REGRESS_DIR}/"
printf '{"schema": "repro/bench-obs/v1", "smoke": false, "overhead_pct": 50.0}\n' \
    > "${REGRESS_DIR}/BENCH_obs.json"
if python -m repro.cli obs trend --bench-dir "${REGRESS_DIR}" \
    --history BENCH_HISTORY.jsonl > /dev/null 2>&1; then
    echo "obs trend failed to flag an injected 50% overhead regression" >&2
    exit 1
fi
echo "obs trend gate OK: committed artifacts pass, injected regression caught"

echo "== stage 10: fleet smoke (sharding + SIGKILL + resume + quarantine) =="
FLEET_ARGS=(--buildings 4 --epochs 3 --nodes 2 --hours-per-epoch 6
    --storm-period 2 --storm-duration 1 --epoch-timeout-s 30
    --backoff-base-s 0.05 --backoff-max-s 0.5)

python -m repro.cli fleet run --fleet-dir "${OUT_DIR}/fleet-solo" \
    "${FLEET_ARGS[@]}" --workers 1 > /dev/null
python -m repro.cli fleet run --fleet-dir "${OUT_DIR}/fleet-pool" \
    "${FLEET_ARGS[@]}" --workers 4 > /dev/null

FLEET_HASH="$(python - "${OUT_DIR}" <<'PY'
import json
import sys
from pathlib import Path

out_dir = Path(sys.argv[1])
digests = {
    arm: json.loads((out_dir / f"fleet-{arm}" / "result.json").read_text())["sha256"]
    for arm in ("solo", "pool")
}
assert digests["solo"] == digests["pool"], (
    f"fleet hash depends on the worker count: {digests}"
)
print(digests["pool"])
PY
)"
echo "fleet worker-count invariance OK (${FLEET_HASH})"

# SIGKILL the whole supervisor mid-epoch; resume must converge on the
# same bytes (PR_SET_PDEATHSIG takes the orphaned workers down too).
FLEET_KILL_DIR="${OUT_DIR}/fleet-kill"
python -m repro.cli fleet run --fleet-dir "${FLEET_KILL_DIR}" \
    "${FLEET_ARGS[@]}" --workers 4 --epoch-sleep-s 0.4 \
    > /dev/null 2>&1 &
FLEET_PID=$!

FLEET_MARKER="${FLEET_KILL_DIR}/shards/b001/checkpoints/epoch-000001.json"
for _ in $(seq 1 600); do
    [ -f "${FLEET_MARKER}" ] && break
    if ! kill -0 "${FLEET_PID}" 2>/dev/null; then
        echo "fleet exited before it could be killed" >&2
        exit 1
    fi
    sleep 0.1
done
[ -f "${FLEET_MARKER}" ] || { echo "no shard checkpoint appeared in time" >&2; exit 1; }
kill -9 "${FLEET_PID}" 2>/dev/null || true
wait "${FLEET_PID}" 2>/dev/null || true

if [ -f "${FLEET_KILL_DIR}/result.json" ]; then
    echo "fleet finished before the kill; nothing was tested" >&2
    exit 1
fi

python -m repro.cli fleet status --fleet-dir "${FLEET_KILL_DIR}"
python -m repro.cli fleet resume --fleet-dir "${FLEET_KILL_DIR}" > /dev/null

RESUMED_FLEET_HASH="$(python - "${FLEET_KILL_DIR}/result.json" <<'PY'
import json
import sys

print(json.load(open(sys.argv[1]))["sha256"])
PY
)"
if [ "${RESUMED_FLEET_HASH}" != "${FLEET_HASH}" ]; then
    echo "resumed fleet diverged from the uninterrupted reference:" >&2
    echo "  resumed:   ${RESUMED_FLEET_HASH}" >&2
    echo "  reference: ${FLEET_HASH}" >&2
    exit 1
fi
echo "fleet kill smoke OK: SIGKILL mid-epoch + resume == uninterrupted"

# Poison shard: b003 fails every attempt -> quarantine, survivors
# complete, exit code 4, and the loss is visible everywhere.
FLEET_PLAN="${OUT_DIR}/fleet-poison.json"
python - "${FLEET_PLAN}" <<'PY'
import sys

from repro.faults import WorkerFault, WorkerFaultPlan

WorkerFaultPlan(faults=(
    WorkerFault(building="b003", epoch=1, action="poison"),
)).to_json_file(sys.argv[1])
PY

set +e
python -m repro.cli fleet run --fleet-dir "${OUT_DIR}/fleet-poison" \
    "${FLEET_ARGS[@]}" --workers 4 --max-restarts 2 \
    --worker-faults "${FLEET_PLAN}" > /dev/null
FLEET_RC=$?
set -e
if [ "${FLEET_RC}" -ne 4 ]; then
    echo "poisoned fleet should exit 4 (quarantined), got ${FLEET_RC}" >&2
    exit 1
fi

python -m repro.cli fleet status --fleet-dir "${OUT_DIR}/fleet-poison" --json \
    > "${OUT_DIR}/fleet-poison-status.json"
python - "${OUT_DIR}" <<'PY'
import json
import sys
from pathlib import Path

out_dir = Path(sys.argv[1])
result = json.loads((out_dir / "fleet-poison" / "result.json").read_text())
assert result["result"]["quarantined"] == ["b003"], result["result"]["quarantined"]
assert result["result"]["totals"]["completed"] == 3
status = json.loads((out_dir / "fleet-poison-status.json").read_text())
assert status["summary"]["quarantined"] == 1, status["summary"]
assert status["shards"]["b003"]["status"] == "quarantined"
assert status["shards"]["b003"]["quarantine_reason"]
print("fleet quarantine smoke OK: b003 poisoned, 3 survivors, exit 4")
PY

REPRO_FLEET_BENCH_SMOKE=1 REPRO_BENCH_OUT="${OUT_DIR}/BENCH_fleet_smoke.json" \
    python -m pytest benchmarks/test_fleet_bench.py --benchmark-only \
    --benchmark-disable-gc -q
python - "${OUT_DIR}/BENCH_fleet_smoke.json" <<'PY'
import json
import sys

bench = json.load(open(sys.argv[1]))
assert bench["schema"] == "repro/bench-fleet/v1"
assert bench["smoke"] is True
assert bench["result_hash_identical"] is True
print(
    f"fleet bench smoke OK: {bench['buildings_per_min']} buildings/min, "
    f"restart overhead {bench['restart_overhead_pct']}%"
)
PY

echo "== stage 11: storage-chaos smoke (fault drill + corruption tripwire) =="
CHAOS_DIR="${OUT_DIR}/chaos"
python -m repro.cli chaos run --dir "${CHAOS_DIR}" --scenario campaign \
    --seed 5 --epochs 2 --nodes 2 --hours-per-epoch 6 --max-attempts 4 \
    --fault-seed 7 --enospc-write-rate 0.1 --torn-write-rate 0.1 \
    --drop-rename-rate 0.05 --json > "${OUT_DIR}/chaos-verdict.json"
python -m repro.cli chaos verify --dir "${CHAOS_DIR}"

python - "${OUT_DIR}/chaos-verdict.json" <<'PY'
import json
import sys

verdict = json.load(open(sys.argv[1]))
assert verdict["status"] in ("pass", "degraded"), verdict
assert verdict["drill_sha256"] == verdict["clean_sha256"], (
    "chaos drill recovered to different result bytes than the clean run"
)
fired = sum(verdict["io"].values())
assert fired > 0, "chaos smoke injected nothing: no storage faults fired"
print(
    f"chaos drill OK: {verdict['status']}, {fired} fault(s) fired, "
    f"recovered to clean sha {verdict['drill_sha256'][:16]}..."
)
PY

# The tripwire: flip one byte in the drill's result file; the verifier
# must notice (embedded sha mismatch / unreadable) and exit non-zero.
python - "${CHAOS_DIR}/drill/state/result.json" <<'PY'
import sys

path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x01
open(path, "wb").write(bytes(data))
PY
if python -m repro.cli chaos verify --dir "${CHAOS_DIR}" > /dev/null 2>&1; then
    echo "chaos verify failed to flag an injected corrupted drill result" >&2
    exit 1
fi
echo "chaos smoke OK: drill recovered, corrupted fixture caught"

echo "== CI OK =="
