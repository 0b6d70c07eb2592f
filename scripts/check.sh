#!/usr/bin/env bash
# Tier-1 verification: the regular build + full test suite (the suites and
# the example smokes), a run of the eight paper benches (tab_consensus_rate,
# tab4_failover, fig7_burst_latency, fig6_latency_vs_throughput,
# fig5_goodput and the ack-path, flow-control and window/MTU ablations)
# whose stdout must match bench/golden byte for byte, the schema check of
# the JSON output of five of them, a perf smoke of
# the simulation substrate (bench/micro_event asserts the exact
# counters of the event kernel's shapes and of the scatter path, and its
# reference-normalized rates must stay within 35% of the checked-in
# baseline — see scripts/perf_smoke.py), then every ctest test but
# chaos_test again under AddressSanitizer + UBSan (separate build tree).
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
    fig5_goodput ablation_ack_path ablation_flow_control ablation_window_mtu; do
    ./build/bench/"$bench" | grep -v '^flight recorder: ' | diff -u "bench/golden/$bench.stdout" -
  done

  echo "== bench JSON schema check: paper benches =="
  # Their files plus whatever the test run emitted (the chaos suite writes
  # FLIGHT_*.json into build/tests).
  python3 scripts/check_bench_json.py BENCH_tab_consensus_rate.json \
    BENCH_tab4_failover.json SERIES_tab4_failover.json FLIGHT_tab4_failover.json \
    BENCH_fig7_burst_latency.json BENCH_fig5_goodput.json BENCH_ablation_window_mtu.json \
    $(ls build/tests/FLIGHT_*.json build/tests/SERIES_*.json 2>/dev/null || true)

  echo "== perf smoke: micro_event vs bench/baselines =="
  # The bench exits 1 when a counter differs; the smoke gates the rates.
  ./build/bench/micro_event >/dev/null
  python3 scripts/check_bench_json.py BENCH_micro_event.json
  python3 scripts/perf_smoke.py micro_event
fi

if [[ "$sanitize" == 1 ]]; then
  echo "== asan/ubsan: build + ctest =="
  # p4ce_tests builds what ctest runs. The run leaves out chaos_test, which
  # takes ~15 s optimised and about 210 s in this Debug sanitizer build.
  cmake -B build-asan -S . -DP4CE_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j "$jobs" --target p4ce_tests
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -E '^chaos_test$'
fi

echo "== check.sh: all green =="
