// The Velos-style one-sided Paxos backend end to end: fast-quorum commits in
// one broadcast-CAS round trip, classic-quorum recovery when a slot CAS
// loses, ballot takeover on leader crash, and the fast path on every lap of
// the slot ring.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "consensus/one_sided.hpp"
#include "core/cluster.hpp"
#include "obs/context.hpp"

namespace p4ce {
namespace {

using consensus::Mode;
using consensus::OneSidedCommunicator;
using core::Cluster;
using core::ClusterOptions;

ClusterOptions one_sided_options(u32 machines) {
  ClusterOptions options;
  options.machines = machines;
  options.mode = Mode::kOneSided;
  return options;
}

OneSidedCommunicator* comm_of(consensus::Node& node) {
  return static_cast<OneSidedCommunicator*>(node.communicator());
}

u64 register_word(consensus::Node& node, u64 offset) {
  u64 v = 0;
  std::memcpy(&v, node.atomics_region()->bytes() + offset, 8);
  return v;
}

u64 slot_conflicts(Cluster& cluster) {
  return cluster.sim().obs().metrics.counter("consensus.one_sided.slot_conflicts").value();
}

struct LoadResult {
  u64 ok = 0;
  u64 failed = 0;
};

/// Commit `count` 64 B values through `leader`, 16 in flight at a time (a
/// closed loop of 16 clients), and run until every one has its verdict.
LoadResult run_closed_loop(Cluster& cluster, consensus::Node& leader, u64 count) {
  LoadResult result;
  u64 issued = 0;
  std::function<void()> issue = [&] {
    if (issued == count) return;
    ++issued;
    const Status posted =
        leader.propose(Bytes(64, static_cast<u8>(issued)), [&](Status st, u64) {
          st.is_ok() ? ++result.ok : ++result.failed;
          issue();
        });
    if (!posted.is_ok()) ++result.failed;
  };
  for (int client = 0; client < 16; ++client) issue();
  const SimTime deadline = cluster.now() + seconds(2);
  while (result.ok + result.failed < count && cluster.now() < deadline) {
    cluster.run_for(milliseconds(1));
  }
  return result;
}

TEST(OneSidedPaxos, FastQuorumCommitsAndDeliversEverywhere) {
  auto cluster = Cluster::create(one_sided_options(3));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_FALSE(cluster->leader()->accelerated());

  std::array<u64, 3> delivered{};
  for (u32 i = 0; i < 3; ++i) {
    cluster->node(i).set_deliver([&delivered, i](const consensus::LogEntry&) {
      ++delivered[i];
    });
  }
  int ok = 0, failed = 0;
  for (int k = 0; k < 200; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, static_cast<u8>(k)),
                                           [&](Status st, u64) { st.is_ok() ? ++ok : ++failed; });
  }
  cluster->run_for(milliseconds(10));
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(failed, 0);
  for (u32 i = 0; i < 3; ++i) EXPECT_EQ(delivered[i], 200u) << "node " << i;

  // Every commit took the fast path: one broadcast-CAS round trip each.
  auto* comm = comm_of(cluster->node(0));
  EXPECT_EQ(comm->fast_path_commits(), 200u);
  EXPECT_EQ(comm->slow_path_commits(), 0u);
  // The replicas' slot registers carry the leader's ballot.
  EXPECT_EQ(register_word(cluster->node(1), consensus::kOneSidedSlotsOffset) >> 48,
            comm->ballot());
}

TEST(OneSidedPaxos, DirtySlotFallsBackToClassicQuorum) {
  auto cluster = Cluster::create(one_sided_options(3));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);

  // Poison the first slot at both replicas with a stale stamp from a dead
  // regime (ballot 0 keeps it below the live leader's ballot): the fast CAS
  // loses there and the op must recover through prepare/accept.
  for (u32 i = 1; i < 3; ++i) {
    const u64 stale = 0x0000'dead'beef'0001ull;
    std::memcpy(cluster->node(i).atomics_region()->bytes() + consensus::kOneSidedSlotsOffset,
                &stale, 8);
  }

  int ok = 0, failed = 0;
  std::ignore = cluster->node(0).propose(Bytes(64, 1),
                                         [&](Status st, u64) { st.is_ok() ? ++ok : ++failed; });
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 0);

  auto* comm = comm_of(cluster->node(0));
  EXPECT_EQ(comm->slow_path_commits(), 1u);
  EXPECT_EQ(comm->fast_path_commits(), 0u);
  // The recovered slot now carries the live ballot and the op's stamp.
  EXPECT_EQ(register_word(cluster->node(1), consensus::kOneSidedSlotsOffset) >> 48,
            comm->ballot());

  // Later ops are clean again: back on the fast path.
  std::ignore = cluster->node(0).propose(Bytes(64, 2),
                                         [&](Status st, u64) { st.is_ok() ? ++ok : ++failed; });
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(comm->fast_path_commits(), 1u);
}

TEST(OneSidedPaxos, FastPathSurvivesTheSlotRingWrap) {
  auto cluster = Cluster::create(one_sided_options(3));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);

  // Three laps of the slot ring, no faults: every op reuses a slot whose
  // word this leader installed on the previous lap.
  const u64 ops = 3 * consensus::kOneSidedSlotCount + 100;
  const LoadResult result = run_closed_loop(*cluster, *cluster->leader(), ops);
  EXPECT_EQ(result.ok, ops);
  EXPECT_EQ(result.failed, 0u);
  auto* comm = comm_of(*cluster->leader());
  EXPECT_EQ(comm->fast_path_commits(), ops);
  EXPECT_EQ(comm->slow_path_commits(), 0u);
  EXPECT_EQ(slot_conflicts(*cluster), 0u);
}

TEST(OneSidedPaxos, ForeignWordOnASecondLapSlotHealsOnTheNextLap) {
  auto cluster = Cluster::create(one_sided_options(3));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);
  consensus::Node& leader = *cluster->leader();
  auto* comm = comm_of(leader);
  constexpr u64 kLap = consensus::kOneSidedSlotCount;

  // Lap 1 fills every slot; the next op lands on slot 0 again.
  LoadResult result = run_closed_loop(*cluster, leader, kLap);
  ASSERT_EQ(result.ok, kLap);
  ASSERT_EQ(comm->fast_path_commits(), kLap);

  // A word this leader never installed (ballot 0, so below the live one)
  // at both replicas: the fast CAS loses there and the op recovers through
  // prepare/accept, which leaves the leader's word behind.
  for (u32 i = 1; i < 3; ++i) {
    const u64 foreign = 0x0000'dead'beef'0002ull;
    std::memcpy(cluster->node(i).atomics_region()->bytes() + consensus::kOneSidedSlotsOffset,
                &foreign, 8);
  }
  result = run_closed_loop(*cluster, leader, 1);
  EXPECT_EQ(result.ok, 1u);
  EXPECT_EQ(comm->slow_path_commits(), 1u);
  EXPECT_EQ(comm->fast_path_commits(), kLap);
  const u64 healed = register_word(cluster->node(1), consensus::kOneSidedSlotsOffset);
  EXPECT_EQ(healed >> 48, comm->ballot());
  EXPECT_EQ(register_word(cluster->node(2), consensus::kOneSidedSlotsOffset), healed);

  // The rest of lap 2, then slot 0 on lap 3: all on the fast path.
  result = run_closed_loop(*cluster, leader, kLap);
  EXPECT_EQ(result.ok, kLap);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(comm->slow_path_commits(), 1u);
  EXPECT_EQ(comm->fast_path_commits(), 2 * kLap);
  EXPECT_NE(register_word(cluster->node(1), consensus::kOneSidedSlotsOffset), healed);
}

TEST(OneSidedPaxos, TakeoverAfterTheWrapIsFastAgainAfterItsFirstLap) {
  // Five machines, so the new leader still has a fast quorum of replicas.
  auto cluster = Cluster::create(one_sided_options(5));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);
  ASSERT_EQ(cluster->leader()->id(), 0u);
  constexpr u64 kLap = consensus::kOneSidedSlotCount;

  // The first regime wraps the ring: every slot holds one of its words.
  LoadResult result = run_closed_loop(*cluster, cluster->node(0), kLap + 100);
  ASSERT_EQ(result.ok, kLap + 100);
  ASSERT_EQ(comm_of(cluster->node(0))->slow_path_commits(), 0u);

  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while ((cluster->leader() == nullptr || cluster->leader()->id() == 0) &&
         cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  consensus::Node& leader = *cluster->leader();
  ASSERT_NE(leader.id(), 0u);
  auto* comm = comm_of(leader);

  // The new leader starts with an empty slot-word memory: its first lap
  // meets the old regime's words and commits every op the slow way.
  result = run_closed_loop(*cluster, leader, kLap);
  EXPECT_EQ(result.ok, kLap);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(comm->slow_path_commits() + comm->fast_path_commits(), kLap);
  const u64 first_lap_slow = comm->slow_path_commits();
  EXPECT_EQ(first_lap_slow, kLap);

  // On its second lap every slot holds its own word: no slow commits.
  result = run_closed_loop(*cluster, leader, 2'000);
  EXPECT_EQ(result.ok, 2'000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(comm->slow_path_commits(), first_lap_slow);
  EXPECT_EQ(comm->fast_path_commits() + first_lap_slow, kLap + 2'000);
}

TEST(OneSidedPaxos, LeaderCrashTriggersBallotTakeover) {
  auto cluster = Cluster::create(one_sided_options(3));
  ASSERT_TRUE(cluster->start());
  ASSERT_NE(cluster->leader(), nullptr);
  ASSERT_EQ(cluster->leader()->id(), 0u);

  int ok = 0;
  for (int k = 0; k < 50; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 3), [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(5));
  ASSERT_EQ(ok, 50);
  const u64 old_ballot = comm_of(cluster->node(0))->ballot();
  EXPECT_EQ(register_word(cluster->node(2), consensus::kOneSidedBallotOffset), old_ballot);

  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while ((cluster->leader() == nullptr || cluster->leader()->id() != 1) &&
         cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  ASSERT_EQ(cluster->leader()->id(), 1u);

  // The takeover raised the surviving replica's ballot register monotonically.
  auto* comm = comm_of(cluster->node(1));
  EXPECT_GT(comm->ballot(), old_ballot);
  EXPECT_EQ(register_word(cluster->node(2), consensus::kOneSidedBallotOffset), comm->ballot());

  // And the new regime commits (fast path: n=3 still has a fast quorum with
  // the leader plus one replica... (3*3+3)/4 = 3, so it needs both remote
  // CASes — with only one live replica the op goes straight to the classic
  // path and still commits).
  int ok2 = 0, failed2 = 0;
  for (int k = 0; k < 20; ++k) {
    std::ignore = cluster->leader()->propose(Bytes(64, 4), [&](Status st, u64) {
      st.is_ok() ? ++ok2 : ++failed2;
    });
  }
  cluster->run_for(milliseconds(10));
  EXPECT_EQ(ok2, 20);
  EXPECT_EQ(failed2, 0);
}

}  // namespace
}  // namespace p4ce
