#!/usr/bin/env bash
# Continuous-integration gate for the EcoCapsule reproduction.
#
# 1. The tier-1 test suite under tests/: unit, golden-regression,
#    determinism, kill-and-resume, fleet, chaos and CLI tests.
# 2. The scalar/batch equivalence files, the storage I/O trace, the
#    rollup bodies and the contract hashes again under two
#    PYTHONHASHSEED values: the bytes they compare against committed
#    goldens must not depend on the hash seed.
# 3. The phy, obs and fleet benchmarks at smoke size
#    (REPRO_BENCH_SMOKE=1), each writing its artifact into a throwaway
#    directory so the committed BENCH_*.json files stay untouched.
# 4. The end-to-end benchmark's traced pass, one second per workload:
#    each run must exit 0 and report "correct": true with "failed": 0.
#    A traced child dies (and perfbench exits 2) when a call it wraps
#    no longer resolves.
#
# Usage:  scripts/ci.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== 1/4: tier-1 test suite =="
python -m pytest -x -q "$@"

echo "== 2/4: equivalence, I/O trace, rollup bodies and contract hashes under two hash seeds =="
for HASHSEED in 0 31337; do
    PYTHONHASHSEED="${HASHSEED}" python -m pytest -q \
        tests/test_phy_batch_equivalence.py \
        tests/test_acoustics_batch_equivalence.py \
        tests/test_batch_golden_regression.py \
        tests/test_store_io_trace.py \
        tests/test_store_rollup_bodies.py \
        tests/test_contract.py
done

echo "== 3/4: benchmark smokes (phy, obs, fleet) =="
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT
for BENCH in phy obs fleet; do
    REPRO_BENCH_SMOKE=1 REPRO_BENCH_OUT="${OUT_DIR}/BENCH_${BENCH}.json" \
        python -m pytest "benchmarks/test_${BENCH}_bench.py" \
        --benchmark-only --benchmark-disable-gc -q
done

echo "== 4/4: the benchmark's traced runs (pilot, dashboard, drilldown) =="
for WORKLOAD in pilot dashboard drilldown; do
    RESULT="$(python3 perfbench/run.py --workload "${WORKLOAD}" --seconds 1 --trace 1 | tail -n 1)"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
        "${RESULT}" || { echo "perfbench ${WORKLOAD}: ${RESULT:0:300}"; exit 1; }
    echo "perfbench ${WORKLOAD}: correct, 0 failed"
done

echo "== CI OK =="
