// Randomized fault-injection soak test: a 5-machine P4CE cluster under
// continuous load with crashes of replicas, the leader, and the switch at
// random times. Verifies the safety invariants that must survive anything:
//
//   1. Every proposal acknowledged as committed is delivered by every
//      surviving machine (no committed value is ever lost).
//   2. Deliveries are gapless, in-order sequence prefixes on every node.
//   3. Terms only move forward.
//
// Every seed also runs with the telemetry sampler and the fault flight
// recorder armed: each injected fault must leave at least one capture whose
// telemetry window spans the fault — the flight recorder's acceptance test.
//
// A second set of seeds runs each crash schedule twice and requires the two
// runs to agree bit for bit, with the survivor-safety check on both.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "consensus/one_sided.hpp"
#include "core/cluster.hpp"
#include "obs/context.hpp"

namespace p4ce {
namespace {

using core::Cluster;
using core::ClusterOptions;

/// `warmup_commits` > 0: before any fault is scheduled, a closed loop of 16
/// clients commits that many values, and the leader is one of the machines
/// that crash. `log_size` is each node's log ring.
void run_chaos_seed(u64 seed, consensus::Mode mode, u64 warmup_commits = 0,
                    u64 log_size = ClusterOptions{}.log_size) {
  Rng rng(seed);

  ClusterOptions options;
  options.machines = 5;
  options.mode = mode;
  options.log_size = log_size;
  options.cal = consensus::Calibration::failover();
  auto cluster = Cluster::create(options);
  // Arm this cluster's sampler and flight recorder. Generous capture budget,
  // but a wide per-kind gap: a post-crash retransmit storm must not exhaust
  // the budget before the (later) switch crash gets its capture.
  cluster->sim().obs().sampler.enable(/*period=*/microseconds(100));
  cluster->sim().obs().recorder.enable(/*max_captures=*/64, /*frame_window=*/256,
                                       /*min_gap=*/milliseconds(2));
  ASSERT_TRUE(cluster->start());

  sim::Simulator& sim = cluster->sim();
  std::set<u64> committed_seqs;
  u64 proposals = 0;
  u64 max_term_seen = 0;

  if (warmup_commits > 0) {
    consensus::Node* first = cluster->leader();
    ASSERT_NE(first, nullptr);
    std::function<void()> issue = [&] {
      if (proposals == warmup_commits) return;
      ++proposals;
      std::ignore = first->propose(Bytes(64, static_cast<u8>(proposals)),
                                   [&](Status st, u64 seq) {
                                     if (st.is_ok()) committed_seqs.insert(seq);
                                     issue();
                                   });
    };
    for (int client = 0; client < 16; ++client) issue();
    const SimTime deadline = cluster->now() + seconds(1);
    while (committed_seqs.size() < warmup_commits && cluster->now() < deadline) {
      cluster->run_for(milliseconds(1));
    }
    ASSERT_EQ(committed_seqs.size(), warmup_commits) << "warm-up stalled (seed " << seed << ")";
  }

  // Continuous closed-ish load through whoever currently leads.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&, pump] {
    consensus::Node* leader = cluster->leader();
    if (leader != nullptr && leader->term() >= max_term_seen) {
      max_term_seen = std::max(max_term_seen, leader->term());
      ++proposals;
      std::ignore = leader->propose(Bytes(64, static_cast<u8>(proposals)),
                                    [&](Status st, u64 seq) {
                                      if (st.is_ok()) committed_seqs.insert(seq);
                                    });
    }
    sim.schedule(microseconds(20), [pump] { (*pump)(); });
  };
  (*pump)();

  // Random fault schedule: up to two machine crashes (quorum of 5 survives)
  // and possibly the switch, at random instants in the first 30 ms.
  std::vector<u32> crashable = {0, 1, 2, 3, 4};
  const u32 machine_crashes = 1 + static_cast<u32>(rng.next_below(2));
  std::set<u32> killed;
  for (u32 k = 0; k < machine_crashes; ++k) {
    u32 victim;
    if (k == 0 && warmup_commits > 0) {
      victim = cluster->leader()->id();
    } else {
      do {
        victim = static_cast<u32>(rng.next_below(5));
      } while (killed.contains(victim));
    }
    killed.insert(victim);
    const Duration when = 2'000'000 + static_cast<Duration>(rng.next_below(28'000'000));
    sim.schedule(when, [&cluster, victim] { cluster->crash_node(victim); });
  }
  const bool kill_switch = rng.next_bool(0.5);
  if (kill_switch) {
    const Duration when = 2'000'000 + static_cast<Duration>(rng.next_below(28'000'000));
    sim.schedule(when, [&cluster] { cluster->crash_switch(); });
  }

  // Run through the chaos, then give the system ample time to re-elect,
  // re-route and repair.
  cluster->run_for(milliseconds(35));
  cluster->run_for(milliseconds(150));

  // --- Invariants -----------------------------------------------------------

  ASSERT_FALSE(committed_seqs.empty()) << "the cluster never committed anything";

  // A leader must exist again (majority survives by construction).
  consensus::Node* leader = cluster->leader();
  ASSERT_NE(leader, nullptr) << "no leader after recovery (seed " << seed << ")";
  EXPECT_FALSE(killed.contains(leader->id()));

  // Let the pump run a little more so post-recovery commits flow.
  const u64 committed_before = committed_seqs.size();
  cluster->run_for(milliseconds(5));
  EXPECT_GT(committed_seqs.size(), committed_before)
      << "cluster wedged: no commits after recovery";

  // (1) + (2): every survivor delivered a gapless prefix covering every
  // committed sequence number.
  const u64 max_committed = *committed_seqs.rbegin();
  cluster->run_for(milliseconds(20));  // drain deliveries
  *pump = nullptr;  // break the pump's self-referential keep-alive cycle
  for (u32 i = 0; i < 5; ++i) {
    if (killed.contains(i)) continue;
    const u64 delivered = cluster->node(i).last_delivered_seq();
    EXPECT_GE(delivered, max_committed)
        << "node " << i << " lost committed entries (seed " << seed << ")";
  }

  // (3): term moved forward iff the leader changed.
  EXPECT_GE(leader->term(), 1u);
  if (killed.contains(0u)) {
    EXPECT_GT(leader->term(), 1u);
  }
  if (warmup_commits > 0 && mode == consensus::Mode::kOneSided) {
    // The new regime's first lap met the old regime's slot words.
    EXPECT_GT(sim.obs().metrics.counter("consensus.one_sided.slot_conflicts").value(), 0u);
  }

  // Commit sequence numbers are nearly contiguous: each leadership
  // disruption may abort up to one in-flight window of proposals whose
  // sequence numbers were consumed but never acknowledged (they are still
  // adopted into the recovered log; their clients simply saw a failure).
  const u64 range = *committed_seqs.rbegin() - *committed_seqs.begin() + 1;
  const u64 gaps = range - committed_seqs.size();
  EXPECT_LE(gaps, 3u * consensus::Calibration().max_outstanding)
      << "more committed-sequence gaps than crash-aborted windows can explain";

  // Flight recorder: every seed injects at least one machine crash, so at
  // least one capture must exist, with a telemetry window leading up to it.
  const auto& recorder = cluster->sim().obs().recorder;
  ASSERT_GE(recorder.capture_count(), 1u)
      << "faults were injected but the flight recorder captured nothing";
  for (const auto& cap : recorder.captures()) {
    EXPECT_FALSE(cap.kind.empty());
    ASSERT_FALSE(cap.frames.empty())
        << "capture '" << cap.kind << "' froze no telemetry frames";
    EXPECT_LE(cap.frames.front().at, cap.at);
    EXPECT_LE(cap.frames.back().at, cap.at);
    EXPECT_FALSE(cap.series.empty());
  }
  if (kill_switch) {
    const bool saw_switch_capture =
        std::any_of(recorder.captures().begin(), recorder.captures().end(),
                    [](const auto& cap) { return cap.kind == "switch_failure"; });
    EXPECT_TRUE(saw_switch_capture) << "switch crash left no capture";
  }
  // The run's flight-recorder artefact, one file per backend and seed, as
  // ctest runs the seeds in parallel.
  std::ignore = recorder.write_json("FLIGHT_chaos_" + std::string(core::backend_name(mode)) +
                                    "_seed" + std::to_string(seed) + ".json");
}

class ChaosTest : public ::testing::TestWithParam<u64> {};

TEST_P(ChaosTest, CommittedValuesSurviveArbitraryCrashSchedules) {
  run_chaos_seed(GetParam(), consensus::Mode::kP4ce);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// The one-sided backend through the same schedules: commitment rides on
// verbs CASes instead of write-ACK aggregation, but the safety invariants
// are identical. Two seeds keep the soak affordable.
class OneSidedChaosTest : public ::testing::TestWithParam<u64> {};

TEST_P(OneSidedChaosTest, CommittedValuesSurviveArbitraryCrashSchedules) {
  run_chaos_seed(GetParam(), consensus::Mode::kOneSided);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneSidedChaosTest, ::testing::Values(101, 404));

// The one-sided backend past its slot-ring wrap: the first regime commits
// more than 2^14 values, so every slot holds one of its words when its
// crash hands the ring to a new leader, whose first lap must take each
// slot over through the slow path. Seed 904 crashes only the leader; 913
// crashes the switch as well.
class OneSidedWrapChaosTest : public ::testing::TestWithParam<u64> {};

TEST_P(OneSidedWrapChaosTest, TakeoverMeetsTheOldRegimesSlotWords) {
  run_chaos_seed(GetParam(), consensus::Mode::kOneSided,
                 /*warmup_commits=*/consensus::kOneSidedSlotCount + 2'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneSidedWrapChaosTest, ::testing::Values(904, 913));

// P4CE and Mu with a log ring that wraps under chaos. Every value is 64 B,
// an 88 B entry (entry_footprint), so a 64 KiB lap holds 744 entries: the
// 2,000 warm-up commits wrap the ring twice (2.7 laps) before the first
// fault, the leader's crash, is scheduled, and the pump then adds one entry
// every 20 us. A lap must outlast the furthest a replica can fall behind
// during a fail-over. A leader that crashes, or that steps down to re-route
// around a dead switch, appends nothing more, so the survivors differ by at
// most the old leader's writes in flight: max_outstanding = 16 per QP, one
// entry each, 16 entries against a 744-entry lap.
constexpr u64 kWrapLogSize = 64 << 10;
constexpr u64 kWrapWarmupCommits = 2'000;
static_assert(kWrapWarmupCommits * consensus::entry_footprint(64) >= 2 * kWrapLogSize);
static_assert(kWrapLogSize / consensus::entry_footprint(64) >
              consensus::Calibration{}.max_outstanding);

std::string backend_and_seed(
    const ::testing::TestParamInfo<std::tuple<consensus::Mode, u64>>& info) {
  const auto [mode, seed] = info.param;
  return std::string(core::backend_name(mode)) + "_" + std::to_string(seed);
}

class LogWrapChaosTest : public ::testing::TestWithParam<std::tuple<consensus::Mode, u64>> {};

TEST_P(LogWrapChaosTest, CommittedValuesSurviveCrashesAfterTheLogWraps) {
  const auto [mode, seed] = GetParam();
  run_chaos_seed(seed, mode, kWrapWarmupCommits, kWrapLogSize);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogWrapChaosTest,
                         ::testing::Combine(::testing::Values(consensus::Mode::kP4ce,
                                                              consensus::Mode::kMu),
                                            ::testing::Values(131, 262, 393)),
                         backend_and_seed);

// --- Repeatability under chaos ------------------------------------------------

struct ChaosOutcome {
  u64 committed = 0;
  u64 max_committed_seq = 0;
  u64 proposals = 0;
  SimTime end_time = 0;
  std::vector<u64> delivered;  // per surviving node

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome run_repeatable_chaos(u64 seed) {
  Rng rng(seed);
  ClusterOptions options;
  options.machines = 5;
  options.mode = consensus::Mode::kP4ce;
  options.cal = consensus::Calibration::failover();
  auto cluster = Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  sim::Simulator& sim = cluster->sim();

  std::set<u64> committed_seqs;
  u64 proposals = 0;

  // Load pump: one proposal through the current leader every 25 us.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&cluster, &committed_seqs, &proposals, pump] {
    if (consensus::Node* leader = cluster->leader()) {
      ++proposals;
      std::ignore = leader->propose(Bytes(64, static_cast<u8>(proposals)),
                                    [&committed_seqs](Status st, u64 seq) {
                                      if (st.is_ok()) committed_seqs.insert(seq);
                                    });
    }
    cluster->sim().schedule(microseconds(25), [pump] { (*pump)(); });
  };
  sim.schedule(microseconds(5), [pump] { (*pump)(); });

  // One or two machine crashes, 2-12 ms after the leader came up.
  const u32 machine_crashes = 1 + static_cast<u32>(rng.next_below(2));
  std::set<u32> killed;
  for (u32 k = 0; k < machine_crashes; ++k) {
    u32 victim;
    do {
      victim = static_cast<u32>(rng.next_below(5));
    } while (killed.contains(victim));
    killed.insert(victim);
    const Duration delay = 2'000'000 + static_cast<Duration>(rng.next_below(10'000'000));
    sim.schedule(delay, [&cluster, victim] { cluster->crash_node(victim); });
  }

  cluster->run_for(milliseconds(15));
  cluster->run_for(milliseconds(60));
  cluster->run_for(milliseconds(5));  // drain deliveries
  *pump = nullptr;  // break the self-referential keep-alive cycle (no runs after)

  ChaosOutcome out;
  out.committed = committed_seqs.size();
  out.max_committed_seq = committed_seqs.empty() ? 0 : *committed_seqs.rbegin();
  out.proposals = proposals;
  out.end_time = cluster->now();
  for (u32 i = 0; i < 5; ++i) {
    if (killed.contains(i)) continue;
    out.delivered.push_back(cluster->node(i).last_delivered_seq());
  }

  // No committed value may be lost by any survivor.
  for (u64 d : out.delivered) {
    EXPECT_GE(d, out.max_committed_seq) << "survivor lost committed entries (seed " << seed << ")";
  }
  EXPECT_GT(out.committed, 0u) << "nothing committed (seed " << seed << ")";
  return out;
}

class RepeatableChaosTest : public ::testing::TestWithParam<u64> {};

TEST_P(RepeatableChaosTest, FaultSchedulesAreBitForBitRepeatable) {
  const ChaosOutcome first = run_repeatable_chaos(GetParam());
  const ChaosOutcome second = run_repeatable_chaos(GetParam());
  EXPECT_EQ(first, second) << "seed " << GetParam() << " not repeatable";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepeatableChaosTest,
                         ::testing::Values(11, 23, 37, 41, 53, 67, 79, 97));

}  // namespace
}  // namespace p4ce
