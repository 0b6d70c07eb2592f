// The Velos-style one-sided Paxos backend end to end: fast-quorum commits in
// one broadcast-CAS round trip, classic-quorum recovery when a slot CAS
// loses, and ballot takeover on leader crash.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "consensus/one_sided.hpp"
#include "core/cluster.hpp"

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
