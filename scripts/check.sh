#!/usr/bin/env bash
# Tier-1 verification: the regular build + full test suite (the suites and
# the example smokes), a run of the eight paper benches (tab_consensus_rate,
# tab4_failover, fig7_burst_latency, fig6_latency_vs_throughput,
# fig5_goodput and the ack-path, flow-control and window/MTU ablations)
# whose stdout must match bench/golden byte for byte, the schema check of
# the JSON output of all eight, a perf smoke of
# the simulation substrate (bench/micro_event asserts the exact
# counters of the event kernel's shapes and of the scatter path, and its
# reference-normalized rates must stay within 35% of the checked-in
# baseline — see scripts/perf_smoke.py), a 1 s perfbench run of each
# BENCHMARK.json workload (perfbench/run.py builds perfbench from src/ and
# exits non-zero on a build break or a failed output check), then every
# ctest test again under AddressSanitizer + UBSan (separate build tree).
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
  # byte (notices naming output files go to stderr). tab_consensus_rate runs
  # Mu, one-sided and P4CE with attribution on, which must not move a table:
  # the schema check below then covers every backend's stage breakdown.
  for bench in tab_consensus_rate tab4_failover fig7_burst_latency fig6_latency_vs_throughput \
    fig5_goodput ablation_ack_path ablation_flow_control ablation_window_mtu; do
    attr=0
    [[ "$bench" == tab_consensus_rate ]] && attr=1
    P4CE_ATTR=$attr ./build/bench/"$bench" | diff -u "bench/golden/$bench.stdout" -
  done

  echo "== bench JSON schema check: paper benches =="
  # Their files plus whatever the test run emitted (the chaos suite writes
  # FLIGHT_*.json into build/tests).
  python3 scripts/check_bench_json.py BENCH_tab_consensus_rate.json \
    BENCH_tab4_failover.json SERIES_tab4_failover.json FLIGHT_tab4_failover.json \
    BENCH_fig7_burst_latency.json BENCH_fig6_latency_vs_throughput.json \
    BENCH_fig5_goodput.json BENCH_ablation_ack_path.json BENCH_ablation_flow_control.json \
    BENCH_ablation_window_mtu.json \
    $(ls build/tests/FLIGHT_*.json build/tests/SERIES_*.json 2>/dev/null || true)

  echo "== perf smoke: micro_event vs bench/baselines =="
  # The bench exits 1 when a counter differs; the smoke gates the rates.
  ./build/bench/micro_event >/dev/null
  python3 scripts/check_bench_json.py BENCH_micro_event.json
  python3 scripts/perf_smoke.py micro_event

  echo "== perfbench: each BENCHMARK.json workload, 1 s =="
  # perfbench builds against src/'s API; this is where a change that breaks
  # that build, or fails perfbench's output check, shows first. One line per
  # workload from its JSON result, so a memory or rate jump shows in the log.
  for workload in $(python3 -c "import json
print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do
    python3 perfbench/run.py --workload "$workload" --seed 301 --seconds 1 --trace 0 |
      python3 -c "import json, sys
r = json.loads(sys.stdin.read().splitlines()[-1])
m = r['metrics']
print('%s: correct=%s failed=%d peak_rss_mb=%.1f host_commits_per_s=%.0f' % (sys.argv[1],
      r['correct'], r['failed'], m['peak_rss_mb']['value'], m['host_commits_per_s']['value']))" \
        "$workload"
  done
fi

if [[ "$sanitize" == 1 ]]; then
  echo "== asan/ubsan: build + ctest =="
  # p4ce_tests builds what ctest runs; each chaos seed is its own ctest case,
  # so the seeds run in parallel.
  cmake -B build-asan -S . -DP4CE_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j "$jobs" --target p4ce_tests
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
fi

echo "== check.sh: all green =="
