#!/usr/bin/env bash
# Continuous-integration gate for the EcoCapsule reproduction.
#
# 1. The tier-1 test suite under tests/: unit, golden-regression,
#    determinism, kill-and-resume, fleet, chaos and CLI tests.
# 2. The scalar/batch equivalence files again under two PYTHONHASHSEED
#    values: the BERs they byte-compare against the committed goldens
#    must not depend on the hash seed.
# 3. The phy, obs and fleet benchmarks at smoke size
#    (REPRO_BENCH_SMOKE=1), each writing its artifact into a throwaway
#    directory so the committed BENCH_*.json files stay untouched.
#
# Usage:  scripts/ci.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== 1/3: tier-1 test suite =="
python -m pytest -x -q "$@"

echo "== 2/3: scalar/batch equivalence under two hash seeds =="
for HASHSEED in 0 31337; do
    PYTHONHASHSEED="${HASHSEED}" python -m pytest -q \
        tests/test_phy_batch_equivalence.py \
        tests/test_acoustics_batch_equivalence.py \
        tests/test_batch_golden_regression.py
done

echo "== 3/3: benchmark smokes (phy, obs, fleet) =="
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT
for BENCH in phy obs fleet; do
    REPRO_BENCH_SMOKE=1 REPRO_BENCH_OUT="${OUT_DIR}/BENCH_${BENCH}.json" \
        python -m pytest "benchmarks/test_${BENCH}_bench.py" \
        --benchmark-only --benchmark-disable-gc -q
done

echo "== CI OK =="
