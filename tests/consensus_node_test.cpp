// Decision-protocol tests at the node/cluster level: election, proposals,
// commit + delivery, permission enforcement against usurpers, exclusion on
// replica crash, view changes with log recovery, and heartbeat liveness.
#include <gtest/gtest.h>

#include <vector>

#include "consensus/log.hpp"
#include "core/cluster.hpp"
#include "obs/context.hpp"

namespace p4ce::consensus {
namespace {

using core::Cluster;
using core::ClusterOptions;

std::unique_ptr<Cluster> make(Mode mode, u32 machines,
                              Calibration cal = Calibration::failover()) {
  ClusterOptions options;
  options.machines = machines;
  options.mode = mode;
  options.cal = cal;
  auto cluster = Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  return cluster;
}

class ModeTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ModeTest, LowestIdBecomesInitialLeader) {
  auto cluster = make(GetParam(), 3);
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_EQ(cluster->leader()->id(), 0u);
  EXPECT_EQ(cluster->leader()->term(), 1u);
  EXPECT_FALSE(cluster->node(1).leader_active());
  EXPECT_FALSE(cluster->node(2).leader_active());
  EXPECT_EQ(cluster->node(1).view_leader(), 0u);
}

TEST_P(ModeTest, ProposalCommitsAndDeliversEverywhere) {
  auto cluster = make(GetParam(), 3);
  std::vector<std::vector<u64>> delivered(3);
  for (u32 i = 0; i < 3; ++i) {
    cluster->node(i).set_deliver(
        [&delivered, i](const LogEntry& e) { delivered[i].push_back(e.seq); });
  }
  int commits = 0;
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(cluster->node(0)
                    .propose(to_bytes("value-" + std::to_string(k)),
                             [&](Status st, u64) { commits += st.is_ok(); })
                    .is_ok());
  }
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(commits, 50);
  for (u32 i = 0; i < 3; ++i) {
    ASSERT_EQ(delivered[i].size(), 50u) << "node " << i;
    for (u64 k = 0; k < 50; ++k) EXPECT_EQ(delivered[i][k], k + 1);
  }
  EXPECT_EQ(cluster->sim().obs().metrics.counter("consensus.commits").value(), 50u);
}

TEST_P(ModeTest, RejectedAppendConsumesNoSeq) {
  // A value over kMaxEntryPayload never reaches the log, alone or in a
  // batch; it must not use up a seq, or every reader would wait at the gap.
  auto cluster = make(GetParam(), 3);
  std::vector<std::vector<u64>> delivered(3);
  for (u32 i = 0; i < 3; ++i) {
    cluster->node(i).set_deliver(
        [&delivered, i](const LogEntry& e) { delivered[i].push_back(e.seq); });
  }
  std::vector<StatusCode> rejected;
  const auto record = [&](Status st, u64 seq) {
    rejected.push_back(st.code());
    EXPECT_EQ(seq, 0u);
  };
  const Bytes oversized(kMaxEntryPayload + 1, 0x42);
  ASSERT_TRUE(cluster->node(0).propose(oversized, record).is_ok());
  ASSERT_TRUE(cluster->node(0).propose_batch({to_bytes("ok"), oversized}, record).is_ok());
  u64 committed_seq = 0;
  ASSERT_TRUE(cluster->node(0)
                  .propose(to_bytes("after"), [&](Status st, u64 seq) {
                    EXPECT_TRUE(st.is_ok());
                    committed_seq = seq;
                  })
                  .is_ok());
  cluster->run_for(milliseconds(2));

  EXPECT_EQ(rejected, (std::vector<StatusCode>{StatusCode::kInvalidArgument,
                                               StatusCode::kInvalidArgument}));
  EXPECT_EQ(committed_seq, 1u);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_EQ(delivered[i], std::vector<u64>{1}) << "node " << i;
  }
}

TEST_P(ModeTest, NonLeaderProposeRejected) {
  auto cluster = make(GetParam(), 3);
  const Status st = cluster->node(1).propose(to_bytes("nope"), nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_P(ModeTest, LogsAreByteIdenticalAfterLoad) {
  auto cluster = make(GetParam(), 3);
  for (int k = 0; k < 200; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(32 + k % 64, static_cast<u8>(k)), nullptr);
  }
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(cluster->node(0).last_delivered_seq(), 200u);
  EXPECT_EQ(cluster->node(1).last_delivered_seq(), 200u);
  EXPECT_EQ(cluster->node(2).last_delivered_seq(), 200u);
}

TEST_P(ModeTest, LeaderCrashElectsNextLowestId) {
  auto cluster = make(GetParam(), 3);
  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (cluster->leader() == nullptr && cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_EQ(cluster->leader()->id(), 1u);
  EXPECT_GT(cluster->leader()->term(), 1u);
  // The new leader serves proposals.
  bool committed = false;
  ASSERT_TRUE(cluster->leader()
                  ->propose(to_bytes("after-failover"),
                            [&](Status st, u64) { committed = st.is_ok(); })
                  .is_ok());
  cluster->run_for(milliseconds(2));
  EXPECT_TRUE(committed);
}

TEST_P(ModeTest, NewLeaderRecoversCommittedEntries) {
  auto cluster = make(GetParam(), 3);
  for (int k = 0; k < 30; ++k) {
    std::ignore = cluster->node(0).propose(to_bytes("entry-" + std::to_string(k)), nullptr);
  }
  cluster->run_for(milliseconds(2));
  const u64 committed_seq = cluster->node(1).last_delivered_seq();
  ASSERT_EQ(committed_seq, 30u);

  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (cluster->leader() == nullptr && cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);

  // New proposals continue the sequence after the recovered prefix.
  std::vector<u64> new_seqs;
  for (int k = 0; k < 3; ++k) {
    std::ignore = cluster->leader()->propose(
        to_bytes("post"), [&](Status st, u64 seq) {
          if (st.is_ok()) new_seqs.push_back(seq);
        });
  }
  cluster->run_for(milliseconds(2));
  ASSERT_EQ(new_seqs.size(), 3u);
  EXPECT_EQ(new_seqs[0], 31u);
  EXPECT_EQ(new_seqs[2], 33u);
  EXPECT_EQ(cluster->node(2).last_delivered_seq(), 33u);
}

TEST_P(ModeTest, NewLeaderBehindAcrossAWrapCatchesUp) {
  // A 64 KiB log holds 64 entries of 1000-byte values. Replica 1 stops
  // receiving writes at seq 40 (the leader excludes it) while the leader
  // wraps the ring to seq 80; then the leader crashes. Replica 1, the lowest
  // live id, leads with a log that ends at offset 40 KiB, while replica 2's
  // ends at 16 KiB on the next lap, 40 seqs further on.
  ClusterOptions options;
  options.machines = 3;
  options.mode = GetParam();
  options.cal = Calibration::failover();
  options.log_size = 64 << 10;
  auto cluster = Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  std::vector<std::vector<u64>> delivered(3);
  for (u32 i = 0; i < 3; ++i) {
    cluster->node(i).set_deliver(
        [&delivered, i](const LogEntry& e) { delivered[i].push_back(e.seq); });
  }
  const auto propose = [&](Node& leader, int count) {
    for (int k = 0; k < count; ++k) {
      ASSERT_TRUE(leader.propose(Bytes(1000, static_cast<u8>(k)), nullptr).is_ok());
      cluster->run_for(microseconds(20));
    }
    cluster->run_for(milliseconds(1));
  };
  propose(cluster->node(0), 40);
  ASSERT_EQ(cluster->node(1).last_delivered_seq(), 40u);
  cluster->node(0).communicator()->exclude_replica(1);
  cluster->run_for(milliseconds(50));  // P4CE: the switch drops replica 1
  propose(cluster->node(0), 40);
  ASSERT_EQ(cluster->node(1).last_delivered_seq(), 40u);
  ASSERT_EQ(cluster->node(2).last_delivered_seq(), 80u);

  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (cluster->leader() == nullptr && cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  ASSERT_EQ(cluster->leader()->id(), 1u);
  propose(*cluster->leader(), 5);
  cluster->run_for(milliseconds(5));

  std::vector<u64> all(85);
  for (u64 k = 0; k < all.size(); ++k) all[k] = k + 1;
  EXPECT_EQ(delivered[1], all) << "the new leader adopts replica 2's suffix";
  EXPECT_EQ(delivered[2], all) << "replica 2 delivers what the new leader appends";
}

TEST_P(ModeTest, ReplicaCrashDoesNotStallCommits) {
  auto cluster = make(GetParam(), 3);
  cluster->crash_node(2);
  cluster->run_for(milliseconds(2));  // detection + exclusion
  int commits = 0;
  for (int k = 0; k < 20; ++k) {
    std::ignore = cluster->node(0).propose(to_bytes("x"),
                                           [&](Status st, u64) { commits += st.is_ok(); });
  }
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(commits, 20);  // f=1 still satisfiable via node 1
}

TEST_P(ModeTest, ReplicaCrashFiresExclusionHook) {
  auto cluster = make(GetParam(), 3);
  NodeId excluded = kInvalidNode;
  cluster->node(0).set_on_replica_excluded([&](NodeId id) { excluded = id; });
  cluster->crash_node(2);
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(excluded, 2u);
}

TEST_P(ModeTest, MajorityLossStopsCommits) {
  auto cluster = make(GetParam(), 3);
  cluster->crash_node(1);
  cluster->crash_node(2);
  cluster->run_for(milliseconds(2));
  int failures = 0, commits = 0;
  for (int k = 0; k < 5; ++k) {
    const Status st = cluster->node(0).propose(to_bytes("doomed"), [&](Status cb, u64) {
      cb.is_ok() ? ++commits : ++failures;
    });
    // Rejected at the door (leadership suspended) or failed in flight —
    // either way the value must not commit.
    if (!st.is_ok()) ++failures;
  }
  cluster->run_for(milliseconds(10));
  EXPECT_EQ(commits, 0);
  EXPECT_EQ(failures, 5);
}

TEST_P(ModeTest, UsurperWritesAreNakedByPermissions) {
  // Node 2 (not the granted leader) tries to write node 1's log directly
  // over a forged data connection: the replica's permission check NAKs it.
  auto cluster = make(GetParam(), 3);
  auto& nic = cluster->host(2).nic;
  rdma::CompletionQueue cq;
  std::vector<rdma::WcStatus> results;
  cq.set_callback([&](const rdma::Completion& c) { results.push_back(c.status); });
  auto& qp = nic.create_qp(cq, {});

  // Forge the direct-data handshake (private data carries the node id; the
  // responder will key permissions off it).
  Bytes hello;
  ByteWriter w(hello);
  w.u32be(2);
  bool connected = false;
  u64 log_vaddr = 0;
  RKey log_rkey = 0;
  nic.cm().connect(core::host_ip(1), 0x14 /*kServiceDirectData*/, qp, hello,
                   [&](StatusOr<rdma::CmAgent::ConnectResult> r) {
                     ASSERT_TRUE(r.is_ok());
                     ByteReader reader(r.value().private_data);
                     reader.u32be();            // node id
                     reader.skip(20);           // hb advert
                     reader.skip(20);           // mailbox advert
                     log_vaddr = reader.u64be();
                     reader.u64be();            // length
                     log_rkey = reader.u32be();
                     connected = true;
                   });
  cluster->run_for(milliseconds(1));
  ASSERT_TRUE(connected);
  ASSERT_TRUE(qp.post_write(1, Bytes(64, 0xEE), log_vaddr, log_rkey).is_ok());
  cluster->run_for(milliseconds(1));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], rdma::WcStatus::kRemoteAccessError);
  // The victim's log never saw the bytes.
  EXPECT_EQ(cluster->node(1).delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeTest, ::testing::Values(Mode::kMu, Mode::kP4ce),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return info.param == Mode::kMu ? "Mu" : "P4ce";
                         });

TEST(LogRepair, ReplicaBehindAcrossAWrapIsRefilledAfterAFallback) {
  // As above, replica 1 stops at seq 40 while the leader wraps a 64 KiB
  // log to seq 80. A P4CE fallback then repairs the replicas from the
  // leader's log: replica 1's suffix runs from 40 KiB to the end of the
  // ring and on from 0.
  ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  options.cal = Calibration::failover();
  options.cal.reacceleration_period = 1'000'000'000;  // no probe in this test
  options.log_size = 64 << 10;
  auto cluster = Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  const auto propose = [&](int count) {
    for (int k = 0; k < count; ++k) {
      ASSERT_TRUE(cluster->node(0).propose(Bytes(1000, static_cast<u8>(k)), nullptr).is_ok());
      cluster->run_for(microseconds(20));
    }
    cluster->run_for(milliseconds(1));
  };
  propose(40);
  cluster->node(0).communicator()->exclude_replica(1);
  cluster->run_for(milliseconds(50));  // the switch drops replica 1
  propose(40);
  ASSERT_EQ(cluster->node(1).last_delivered_seq(), 40u);

  // With the group gone the next writes time out, and the fallback repairs.
  std::ignore = cluster->dataplane().remove_group(0);
  propose(4);
  cluster->run_for(milliseconds(20));
  ASSERT_FALSE(cluster->node(0).accelerated());
  EXPECT_EQ(cluster->node(2).last_delivered_seq(), 84u);
  EXPECT_EQ(cluster->node(1).last_delivered_seq(), 84u) << "the repair must cross the wrap";
}

TEST(LogRepair, ReplicaBehindByMoreThan64MiBIsRefilledAfterAFallback) {
  // As above on a 128 MiB log, but replica 1 stops at seq 1 while the
  // leader appends 65 entries of 1 MiB: the refill spans just over 64 MiB.
  ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  options.cal = Calibration::failover();
  options.cal.reacceleration_period = 1'000'000'000;  // no probe in this test
  options.log_size = 128ull << 20;
  auto cluster = Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  const auto propose = [&](int count, std::size_t size) {
    for (int k = 0; k < count; ++k) {
      ASSERT_TRUE(cluster->node(0).propose(Bytes(size, static_cast<u8>(k)), nullptr).is_ok());
      cluster->run_for(microseconds(200));
    }
    cluster->run_for(milliseconds(1));
  };
  propose(1, 1000);
  cluster->node(0).communicator()->exclude_replica(1);
  cluster->run_for(milliseconds(50));  // the switch drops replica 1
  propose(65, kMaxEntryPayload);
  ASSERT_EQ(cluster->node(2).last_delivered_seq(), 66u);
  ASSERT_EQ(cluster->node(1).last_delivered_seq(), 1u);

  // With the group gone the next writes time out, and the fallback repairs.
  std::ignore = cluster->dataplane().remove_group(0);
  propose(4, 1000);
  cluster->run_for(milliseconds(20));
  ASSERT_FALSE(cluster->node(0).accelerated());
  EXPECT_EQ(cluster->node(2).last_delivered_seq(), 70u);
  EXPECT_EQ(cluster->node(1).last_delivered_seq(), 70u) << "a 64 MiB lag must not stop the refill";
}

TEST(Heartbeat, DetectionLatencyIsAboutTheLivenessTimeout) {
  auto cluster = make(Mode::kMu, 3);
  const SimTime killed = cluster->now();
  cluster->crash_node(2);
  SimTime detected = 0;
  const SimTime deadline = cluster->now() + milliseconds(10);
  while (detected == 0 && cluster->now() < deadline) {
    cluster->run_for(microseconds(10));
    if (!cluster->node(0).heartbeat()->peer_alive(1)) detected = cluster->now();
  }
  ASSERT_NE(detected, 0);
  const Duration latency = detected - killed;
  EXPECT_GE(latency, Calibration::failover().liveness_timeout / 2);
  EXPECT_LE(latency, 2 * Calibration::failover().liveness_timeout);
}

TEST(FiveNodeCluster, SurvivesTwoReplicaCrashes) {
  auto cluster = make(Mode::kP4ce, 5);
  cluster->crash_node(3);
  cluster->crash_node(4);
  cluster->run_for(milliseconds(2));
  int commits = 0;
  for (int k = 0; k < 10; ++k) {
    std::ignore = cluster->node(0).propose(to_bytes("still-alive"),
                                           [&](Status st, u64) { commits += st.is_ok(); });
  }
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(commits, 10);  // f=2 of remaining replicas {1,2}
}

TEST(FiveNodeCluster, CascadedLeaderCrashes) {
  auto cluster = make(Mode::kMu, 5);
  cluster->crash_node(0);
  SimTime deadline = cluster->now() + milliseconds(500);
  while ((cluster->leader() == nullptr || cluster->leader()->id() != 1) &&
         cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_EQ(cluster->leader()->id(), 1u);

  cluster->crash_node(1);
  deadline = cluster->now() + milliseconds(500);
  while ((cluster->leader() == nullptr || cluster->leader()->id() != 2) &&
         cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_EQ(cluster->leader()->id(), 2u);
  bool committed = false;
  std::ignore = cluster->leader()->propose(to_bytes("third leader"),
                                           [&](Status st, u64) { committed = st.is_ok(); });
  cluster->run_for(milliseconds(5));
  EXPECT_TRUE(committed);
}

}  // namespace
}  // namespace p4ce::consensus
