#!/usr/bin/env bash
# CI gate: tier-1 tests, the ablation benchmarks, the service, QoS and
# device smokes and the benchmark's pins, each under a hard wall-clock
# timeout so a livelocked simulator fails the build instead of hanging
# it.
#
# Usage: scripts/ci_check.sh [fast]
#   fast  — additionally deselect tests marked 'slow'
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

TIER1_TIMEOUT="${TIER1_TIMEOUT:-540}"
# The harness self-tests take ~6 s; the pin check runs every benchmark
# workload once at seed 42.
BENCH_TIMEOUT="${BENCH_TIMEOUT:-420}"
SERVICE_TIMEOUT="${SERVICE_TIMEOUT:-180}"
QOS_TIMEOUT="${QOS_TIMEOUT:-120}"
DEVICES_TIMEOUT="${DEVICES_TIMEOUT:-120}"
ABLATION_TIMEOUT="${ABLATION_TIMEOUT:-180}"

MARKER_ARGS=()
if [[ "${1:-}" == "fast" ]]; then
    MARKER_ARGS=(-m "not slow")
fi

echo "== static checks (gated on tool availability) =="
# Lint/type gates run only where the tools exist; CI images without
# them skip with a notice instead of failing the build.
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests scripts
else
    echo "ruff not installed; skipping lint gate"
fi
if command -v mypy >/dev/null 2>&1; then
    mypy src/repro
else
    echo "mypy not installed; skipping type gate"
fi

echo "== tier-1 test suite (timeout ${TIER1_TIMEOUT}s) =="
timeout --signal=KILL "$TIER1_TIMEOUT" \
    python -m pytest -x -q "${MARKER_ARGS[@]}"

echo "== ablation benchmarks (timeout ${ABLATION_TIMEOUT}s) =="
# The ablation benchmarks build ControllerConfig directly (refresh=,
# scheduling=, write_queue=, address_scheme=), so a renamed or removed
# config field breaks them; run them once as plain tests. The hot-loop
# timing benchmark and the figure benchmarks stay out.
timeout --signal=KILL "$ABLATION_TIMEOUT" \
    python -m pytest benchmarks/test_ablation_*.py -q --benchmark-disable

echo "== parallel service smoke (timeout ${SERVICE_TIMEOUT}s) =="
# 2-worker batch run twice: asserts parallel fingerprints match the
# serial reference and the second invocation is >=90% cache hits.
timeout --signal=KILL "$SERVICE_TIMEOUT" \
    python scripts/service_smoke.py --jobs 2

echo "== QoS smoke (timeout ${QOS_TIMEOUT}s) =="
# Tiny 2-requester WRR run: exact per-requester conservation, latency
# fairness within tolerance, and a bit-identical rerun digest. The
# full fairness/differential matrix is tests/dram/test_qos_properties.py
# and tests/golden/test_qos_golden.py (engine-parity cells are 'slow').
timeout --signal=KILL "$QOS_TIMEOUT" \
    python scripts/qos_smoke.py

echo "== device library smoke (timeout ${DEVICES_TIMEOUT}s) =="
# Tiny run per registered preset: exact aggregate-peak conservation,
# ddr4-2400 bit identity with the deviceless baseline, deterministic
# rerun digests (composite multi-channel devices included). The full
# device matrix is tests/devices/ and tests/golden/test_devices.py.
timeout --signal=KILL "$DEVICES_TIMEOUT" \
    python scripts/devices_smoke.py

echo "== benchmark harness and seed-42 pins (timeout ${BENCH_TIMEOUT}s) =="
# bench/ holds the simulator's one benchmark (bench/README.md). Its
# self-tests, then one pass of every workload at seed 42: each point's
# digest must equal bench/fingerprints.json, so a speed-up that changes
# results fails here.
timeout --signal=KILL "$BENCH_TIMEOUT" python -m pytest bench -q
timeout --signal=KILL "$BENCH_TIMEOUT" \
    python bench/run.py --seed 42 --trace 0 --seconds 1

echo "ci_check: OK"
