#!/usr/bin/env bash
# Tier-1 verification: the regular build + full test suite, a run of the
# six paper benches that take seconds (tab_consensus_rate, tab4_failover,
# fig7_burst_latency, fig6_latency_vs_throughput and the ack-path and
# flow-control ablations) whose stdout must match bench/golden byte for
# byte, the schema check of the first three's JSON output, a perf smoke of
# the simulation substrate (bench/micro_event asserts the exact
# counters of the event kernel's shapes and of the scatter path, and its
# reference-normalized rates must stay within 35% of the checked-in
# baseline — see scripts/perf_smoke.py), then the test suite again under
# AddressSanitizer + UBSan (separate build tree).
#
# Usage: scripts/check.sh [--no-sanitize] [--no-perf]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
sanitize=1
perf=1
for arg in "$@"; do
  [[ "$arg" == "--no-sanitize" ]] && sanitize=0
  [[ "$arg" == "--no-perf" ]] && perf=0
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "$perf" == 1 ]]; then
  echo "== paper benches vs bench/golden =="
  # Runs are deterministic, so each table must match its golden byte for
  # byte. tab4's "flight recorder: <path>" line names an output file and is
  # left out of the comparison.
  for bench in tab_consensus_rate tab4_failover fig7_burst_latency fig6_latency_vs_throughput \
    ablation_ack_path ablation_flow_control; do
    ./build/bench/"$bench" | grep -v '^flight recorder: ' | diff -u "bench/golden/$bench.stdout" -
  done

  echo "== bench JSON schema check: paper benches =="
  # Their files plus whatever the test run emitted (the chaos suite writes
  # FLIGHT_*.json into build/tests).
  python3 scripts/check_bench_json.py BENCH_tab_consensus_rate.json \
    BENCH_tab4_failover.json SERIES_tab4_failover.json FLIGHT_tab4_failover.json \
    BENCH_fig7_burst_latency.json \
    $(ls build/tests/FLIGHT_*.json build/tests/SERIES_*.json 2>/dev/null || true)

  echo "== perf smoke: micro_event vs bench/baselines =="
  # The bench exits 1 when a counter differs; the smoke gates the rates.
  ./build/bench/micro_event >/dev/null
  python3 scripts/check_bench_json.py BENCH_micro_event.json
  python3 scripts/perf_smoke.py micro_event
fi

if [[ "$sanitize" == 1 ]]; then
  echo "== asan/ubsan: build + ctest =="
  # Every suite but chaos_test, which takes ~15 s even optimised.
  asan_suites=(
    common_test obs_test sim_test net_test payload_test rdma_memory_test rdma_qp_test
    rdma_atomics_test rdma_nic_test rdma_cm_test switch_test p4ce_dataplane_test
    p4ce_controlplane_test consensus_log_test consensus_node_test consensus_heartbeat_test
    communicator_test one_sided_paxos_test e2e_test determinism_test attribution_test
    sampler_test multigroup_test workload_test
  )
  cmake -B build-asan -S . -DP4CE_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j "$jobs" --target "${asan_suites[@]}"
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R "^($(IFS='|'; echo "${asan_suites[*]}"))\$"
fi

echo "== check.sh: all green =="
