// The benchmark's own load driver and output checker. One Episode builds a
// cluster through core::Cluster, drives it through consensus::Node's client
// API for a fixed simulated warm-up and measured window, drains it, checks
// every node's delivered log, and reads each layer's public counters at the
// window boundaries.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "consensus/node.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  p4ce::consensus::Mode mode = p4ce::consensus::Mode::kP4ce;
  p4ce::u32 machines = 3;
  bool failover_calibration = false;  ///< Table IV detection timings
  p4ce::u32 value_size = 64;
  p4ce::u32 batch = 1;    ///< values per proposal (propose_batch when > 1)
  /// Closed loop: proposals kept outstanding. 0 with batch > 1: as many as
  /// workload::safe_window allows. 0 otherwise: open loop.
  p4ce::u32 clients = 0;
  double open_rate = 0;   ///< open loop: Poisson arrivals per second
  p4ce::Duration warmup = 0;
  p4ce::Duration window = 0;
  /// Crash the leader this long into the window (< 0: no fault).
  p4ce::Duration crash_after = -1;
};

/// Closed loop: a client re-proposes after a seeded think time drawn
/// uniformly from [0, 2 * kThinkMean]. Small against the commit latency, so
/// the leader stays saturated, but it makes each seed a different
/// interleaving.
inline constexpr p4ce::Duration kThinkMean = 1000;

/// Episodes per run, each with its own sub-seed. The simulated metrics are
/// their median, which steadies extreme statistics such as the longest gap
/// between commits.
inline constexpr p4ce::u32 kSubSeeds = 5;

const WorkloadSpec* find_workload(std::string_view name);

/// Perturbations used only by the benchmark's sensitivity self-test.
struct Knobs {
  p4ce::Duration cpu_post_wr = -1;   ///< override Calibration::cpu_post_wr (< 0: keep)
  p4ce::u64 callback_spin_ns = 0;    ///< host busy-wait inside every commit callback
};

using Metrics = std::map<std::string, double>;

struct EpisodeResult {
  bool correct = true;
  std::string violation;  ///< first check that failed
  p4ce::u64 attempted = 0;  ///< requests (values) due or issued
  p4ce::u64 failed = 0;     ///< refused, failed, or unanswered after the drain
  double create_s = 0;
  double start_s = 0;
  double window_host_s = 0;   ///< wall time spent simulating the window
  /// Host speed around the window (see reference.hpp).
  double reference_mevents = 0;
  p4ce::u64 window_commits = 0;
  /// Simulated end-to-end metrics: a function of (workload, seed, code).
  Metrics sim;
  /// Per-layer counts read from the public API: also deterministic.
  Metrics counts;
  /// Heap allocations per commit. Deterministic too, except that the first
  /// episode in a process also pays the library's one-time lazy
  /// initialisation.
  Metrics allocs;
  /// Per-layer host timings (traced episodes only).
  Metrics host;
};

/// Run sub-seed `k` of the run seeded `seed`.
EpisodeResult run_episode(const WorkloadSpec& spec, p4ce::u64 seed, p4ce::u32 k, bool traced,
                          const Knobs& knobs);

}  // namespace perfbench
