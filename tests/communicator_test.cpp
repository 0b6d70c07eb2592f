// Communicator unit tests: the node's commit sequencer's ordering
// guarantees, Mu's f-ACK aggregation and exclusion behaviour, and the P4CE
// communicator's fallback/re-acceleration state machine — exercised over a
// real cluster where interaction with the transport matters.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "consensus/communicator.hpp"
#include "consensus/node.hpp"
#include "core/cluster.hpp"
#include "obs/context.hpp"

namespace p4ce::consensus {
namespace {

TEST(CommitSequencer, ReleasesInOrderRegardlessOfReadiness) {
  std::vector<u64> order;
  CommitSequencer sequencer(1, [&](u64 op, Status, CommitRecord) { order.push_back(op); });
  for (u64 seq = 1; seq <= 4; ++seq) sequencer.expect(seq);
  sequencer.mark_ready(3, Status::ok());
  sequencer.mark_ready(2, Status::ok());
  EXPECT_TRUE(order.empty());  // 1 still outstanding
  sequencer.mark_ready(1, Status::ok());
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 3}));
  sequencer.mark_ready(4, Status::ok());
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 3, 4}));
  EXPECT_EQ(sequencer.outstanding(), 0u);
}

TEST(CommitSequencer, CarriesPerOpStatus) {
  std::vector<bool> ok;
  CommitSequencer sequencer(1, [&](u64, Status st, CommitRecord) { ok.push_back(st.is_ok()); });
  sequencer.expect(1);
  sequencer.expect(2);
  sequencer.mark_ready(1, error(StatusCode::kUnavailable, "lost"));
  sequencer.mark_ready(2, Status::ok());
  EXPECT_EQ(ok, (std::vector<bool>{false, true}));
}

TEST(CommitSequencer, HandsEachOpBackItsRecord) {
  std::vector<u64> last_seqs;
  CommitSequencer sequencer(1, [&](u64, Status, CommitRecord record) {
    last_seqs.push_back(record.last_seq);
  });
  for (const auto& [op, last_seq] : {std::pair<u64, u64>{1, 5}, {2, 9}, {3, 12}}) {
    CommitRecord record;
    record.last_seq = last_seq;
    sequencer.expect(op, std::move(record));
  }
  sequencer.mark_ready(2, Status::ok());
  sequencer.mark_ready(1, Status::ok());
  EXPECT_EQ(last_seqs, (std::vector<u64>{5, 9}));
  sequencer.flush_all(error(StatusCode::kAborted, "step down"));
  EXPECT_EQ(last_seqs, (std::vector<u64>{5, 9, 12}));
}

TEST(CommitSequencer, FlushAllFailsOutstanding) {
  int failures = 0;
  CommitSequencer sequencer(1, [&](u64, Status st, CommitRecord) { failures += !st.is_ok(); });
  sequencer.expect(1);
  sequencer.expect(2);
  sequencer.flush_all(error(StatusCode::kAborted, "step down"));
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(sequencer.next(), 3u);
}

TEST(CommitSequencer, MarkReadyForUnknownSeqIsIgnored) {
  int released = 0;
  CommitSequencer sequencer(1, [&](u64, Status, CommitRecord) { ++released; });
  sequencer.mark_ready(17, Status::ok());  // no crash, no effect
  EXPECT_EQ(sequencer.outstanding(), 0u);
  EXPECT_EQ(released, 0);
}

TEST(CommitSequencer, StartsAtTheOpGivenAtConstruction) {
  // A node in replication domain d numbers its ops from trace_key(d, 1).
  std::vector<u64> order;
  CommitSequencer sequencer(100, [&](u64 op, Status, CommitRecord) { order.push_back(op); });
  sequencer.expect(100);
  sequencer.expect(101);
  sequencer.mark_ready(101, Status::ok());
  EXPECT_TRUE(order.empty());  // 100 comes first
  sequencer.mark_ready(100, Status::ok());
  EXPECT_EQ(order, (std::vector<u64>{100, 101}));
  EXPECT_EQ(sequencer.next(), 102u);
}

TEST(CommitSequencer, ReleasesAWideOutOfOrderWindowInOrder) {
  // More ops outstanding than the op table starts with, made ready back to
  // front.
  std::vector<u64> order;
  CommitSequencer sequencer(1000, [&](u64 op, Status, CommitRecord) { order.push_back(op); });
  for (u64 op = 1000; op < 1000 + 300; ++op) sequencer.expect(op);
  for (u64 op = 1000 + 299; op > 1000; --op) sequencer.mark_ready(op, Status::ok());
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sequencer.outstanding(), 300u);
  sequencer.mark_ready(1000, Status::ok());
  ASSERT_EQ(order.size(), 300u);
  for (u64 i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], 1000 + i);
  EXPECT_EQ(sequencer.outstanding(), 0u);
}

TEST(OpWindow, FindsEachOpAndErasesOutOfOrder) {
  OpWindow<int> window;
  window.insert(7, 1);
  window.insert(7 + 64, 2);
  window.insert(7 + 128, 3);
  ASSERT_NE(window.find(7), nullptr);
  EXPECT_EQ(*window.find(7), 1);
  EXPECT_EQ(*window.find(7 + 64), 2);
  EXPECT_EQ(*window.find(7 + 128), 3);
  EXPECT_EQ(window.find(6), nullptr);
  EXPECT_EQ(window.find(8), nullptr);
  EXPECT_EQ(window.find(7 + 129), nullptr);
  EXPECT_TRUE(window.erase(7 + 64));
  EXPECT_FALSE(window.erase(7 + 64));
  EXPECT_EQ(window.size(), 2u);
  window.insert(7 + 200, 4);
  const auto all = window.take_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (std::pair<u64, int>{7, 1}));
  EXPECT_EQ(all[1], (std::pair<u64, int>{7 + 128, 3}));
  EXPECT_EQ(all[2], (std::pair<u64, int>{7 + 200, 4}));
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.find(7), nullptr);
}

TEST(OpWindow, WalksOpsInOpOrderWhileTheCallbackEditsTheTable) {
  OpWindow<int> window;
  for (const u64 op : {3, 5, 5 + 64, 70, 5 + 192, 10 + 256}) {
    window.insert(op, static_cast<int>(op));
  }
  std::vector<u64> visited;
  window.for_each_in_order([&](u64 op, int& value) {
    EXPECT_EQ(value, static_cast<int>(op));
    visited.push_back(op);
    if (op == 5) {
      // Erase an op not yet visited, and insert ops far enough ahead to grow
      // the table: the walk skips the first and does not visit the others.
      EXPECT_TRUE(window.erase(70));
      window.insert(5 + 256 + 1'000, 0);
      window.insert(5 + 512 + 1'000, 0);
    }
    if (op == 5 + 64) {
      // Erase ops already visited, the front among them, which moves the
      // window's front while the walk is inside it.
      EXPECT_TRUE(window.erase(3));
      EXPECT_TRUE(window.erase(5));
    }
  });
  EXPECT_EQ(visited, (std::vector<u64>{3, 5, 5 + 64, 5 + 192, 10 + 256}));
  EXPECT_EQ(window.size(), 5u);
  ASSERT_NE(window.find(5 + 64), nullptr);
  EXPECT_EQ(*window.find(5 + 64), 5 + 64);
}

/// Checks `window` holds exactly `live` (op -> op * 3) through find,
/// for_each_in_order and size.
void expect_holds(OpWindow<u64>& window, const std::set<u64>& live) {
  ASSERT_EQ(window.size(), live.size());
  for (const u64 op : live) {
    const u64* value = window.find(op);
    ASSERT_NE(value, nullptr) << "op " << op;
    ASSERT_EQ(*value, op * 3);
  }
  std::vector<u64> visited;
  window.for_each_in_order([&](u64 op, u64& value) {
    EXPECT_EQ(value, op * 3);
    visited.push_back(op);
  });
  EXPECT_EQ(visited, std::vector<u64>(live.begin(), live.end()));
}

TEST(OpWindow, ShuffledErasesOfABurstReturnTheTableToTheFloor) {
  OpWindow<u64> window;
  std::vector<u64> ops;
  std::set<u64> live;
  for (u64 op = 0; op < 40'000; ++op) {
    window.insert(op, op * 3);
    ops.push_back(op);
    live.insert(op);
  }
  EXPECT_EQ(window.capacity(), 65'536u);
  Rng rng(17);
  for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[rng.next_below(i)]);

  std::size_t last_capacity = window.capacity();
  std::size_t erased = 0;
  for (const u64 op : ops) {
    ASSERT_TRUE(window.erase(op));
    live.erase(op);
    ++erased;
    EXPECT_EQ(window.find(op), nullptr);
    if (window.capacity() != last_capacity || erased % 5'000 == 0) {
      EXPECT_LE(window.capacity(), last_capacity);
      last_capacity = window.capacity();
      expect_holds(window, live);
    }
    if (live.size() == 50) {
      // take_all hands the survivors back in op order and empties the table.
      OpWindow<u64> copy;
      for (const u64 kept : live) copy.insert(kept, kept * 3);
      const auto all = copy.take_all();
      ASSERT_EQ(all.size(), live.size());
      auto it = live.begin();
      for (const auto& [kept, value] : all) {
        EXPECT_EQ(kept, *it++);
        EXPECT_EQ(value, kept * 3);
      }
      EXPECT_EQ(copy.size(), 0u);
    }
  }
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.capacity(), Ring<u64>::kFloorSlots);
}

TEST(OpWindow, TakeAllOfABurstDropsToTheFloor) {
  OpWindow<u64> window;
  for (u64 op = 100; op < 5'100; ++op) window.insert(op, op * 3);
  ASSERT_EQ(window.capacity(), 8'192u);
  const auto all = window.take_all();
  ASSERT_EQ(all.size(), 5'000u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].first, 100 + i);
  EXPECT_EQ(window.capacity(), Ring<u64>::kFloorSlots);
  // An empty table starts its window at whatever op comes next.
  window.insert(7, 21);
  EXPECT_EQ(*window.find(7), 21u);
}

TEST(OpWindow, AGapOfSkippedOpsIsWalkedAndErased) {
  // Ops 10, 11 and 5,000: the 4,988 numbers in between get empty slots,
  // which the walk passes over and the erases pop off the front.
  OpWindow<u64> window;
  std::set<u64> live{10, 11, 5'000};
  for (const u64 op : live) window.insert(op, op * 3);
  EXPECT_EQ(window.capacity(), 8'192u);
  EXPECT_EQ(window.find(12), nullptr);
  EXPECT_EQ(window.find(4'999), nullptr);
  EXPECT_FALSE(window.erase(2'000));
  expect_holds(window, live);
  ASSERT_TRUE(window.erase(11));
  live.erase(11);
  expect_holds(window, live);
  // Erasing the front pops every empty slot up to op 5,000.
  ASSERT_TRUE(window.erase(10));
  live.erase(10);
  EXPECT_EQ(window.capacity(), Ring<u64>::kFloorSlots);
  expect_holds(window, live);
  window.insert(5'001, 5'001 * 3);
  live.insert(5'001);
  expect_holds(window, live);
}

TEST(OpWindow, AStaleOpPinsTheSlotsUpToTheNewestOpUntilItLeaves) {
  // A window of 16 ops streams past op 0, which does not resolve: the table
  // holds every slot from op 0 to the newest op, so it grows with the
  // stream. Once op 0 leaves, the front moves up to the live window and the
  // table halves back to the floor.
  OpWindow<u64> window;
  std::set<u64> live{0};
  window.insert(0, 0);
  for (u64 op = 1; op < 20'000; ++op) {
    window.insert(op, op * 3);
    live.insert(op);
    if (op > 16) {
      ASSERT_TRUE(window.erase(op - 16));
      live.erase(op - 16);
    }
    ASSERT_GE(window.capacity(), op + 1) << "op 0 pins every slot up to op " << op;
  }
  EXPECT_EQ(window.capacity(), 32'768u);
  expect_holds(window, live);
  ASSERT_TRUE(window.erase(0));
  live.erase(0);
  EXPECT_EQ(window.capacity(), Ring<u64>::kFloorSlots);
  expect_holds(window, live);
}

TEST(OpWindowDeathTest, AnOpNoNewerThanTheNewestAborts) {
  // Checked in every build, not by assert alone.
  OpWindow<int> window;
  window.insert(5, 0);
  window.insert(9, 0);
  EXPECT_DEATH(window.insert(7, 0), "op 7 is not newer than op 9");
  EXPECT_DEATH(window.insert(9, 0), "op 9 is not newer than op 9");
}

// ---------------------------------------------------------------------------
// P4CE fallback / re-acceleration over a live cluster
// ---------------------------------------------------------------------------

TEST(P4ceFallback, SwitchGroupRemovalTriggersFallbackThenReacceleration) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  options.cal.reacceleration_period = 20'000'000;  // probe every 20 ms
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  ASSERT_TRUE(cluster->node(0).accelerated());

  // Sabotage the data plane: remove the group. The next accelerated write
  // is dropped by the switch, the leader's QP times out, and the
  // communicator falls back to direct replication (§III-A).
  std::ignore = cluster->dataplane().remove_group(0);
  int ok = 0;
  for (int k = 0; k < 5; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 9),
                                           [&](Status st, u64) { ok += st.is_ok(); });
  }
  // The write retries until the RDMA timeout (131 us), then fallback
  // replays it over the direct QPs.
  cluster->run_for(milliseconds(5));
  EXPECT_EQ(ok, 5) << "fallback must not lose in-flight proposals";
  EXPECT_FALSE(cluster->node(0).accelerated());
  auto* comm = static_cast<P4ceCommunicator*>(cluster->node(0).communicator());
  EXPECT_GE(comm->fallback_count(), 1u);

  // The periodic probe re-establishes a fresh group through the control
  // plane (40 ms reconfiguration) and the leader re-accelerates.
  const SimTime deadline = cluster->now() + milliseconds(200);
  while (!cluster->node(0).accelerated() && cluster->now() < deadline) {
    cluster->run_for(milliseconds(5));
  }
  EXPECT_TRUE(cluster->node(0).accelerated());
  EXPECT_GE(comm->reaccelerations(), 1u);

  // And the re-accelerated path commits again through the switch. The new
  // group may occupy a different slot, so sum across all of them.
  auto total_scattered = [&] {
    u64 total = 0;
    for (u16 g = 0; g < p4::kMaxGroups; ++g) {
      if (cluster->dataplane().group_active(g)) {
        total += cluster->dataplane().group_stats(g).requests_scattered;
      }
    }
    return total;
  };
  const u64 scattered_before = total_scattered();
  ok = 0;
  for (int k = 0; k < 5; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 9),
                                           [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(total_scattered(), scattered_before + 5);
}

TEST(P4ceFallback, CommitOrderPreservedAcrossModeSwitch) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());

  std::vector<u64> commit_order;
  // Half the proposals in flight when the group disappears; the rest follow
  // through the fallback path. Sequence order must hold throughout.
  for (int k = 0; k < 8; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 1), [&](Status st, u64 seq) {
      if (st.is_ok()) commit_order.push_back(seq);
    });
  }
  std::ignore = cluster->dataplane().remove_group(0);
  for (int k = 0; k < 8; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 1), [&](Status st, u64 seq) {
      if (st.is_ok()) commit_order.push_back(seq);
    });
  }
  cluster->run_for(milliseconds(10));
  ASSERT_EQ(commit_order.size(), 16u) << "no proposal may be lost across the switch";
  for (u64 i = 0; i < commit_order.size(); ++i) EXPECT_EQ(commit_order[i], i + 1);
  // Deliveries on replicas are equally gapless.
  EXPECT_EQ(cluster->node(1).last_delivered_seq(), 16u);
}

TEST(P4ceFallback, FallbackWithNothingInFlightStillCommits) {
  // Fall back while no op is on the accelerated path: a membership update
  // whose CM handshake fails. The commits that follow run over the direct
  // path and must still be released.
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  options.cal.reacceleration_period = 1'000'000'000;  // no probe in this test
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  ASSERT_TRUE(cluster->node(0).accelerated());

  int ok = 0;
  for (int k = 0; k < 5; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 3),
                                           [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(1));
  ASSERT_EQ(ok, 5);

  // The switch CPU stops answering, so excluding replica 2 sends a group
  // update that times out; the leader falls back with nothing outstanding.
  cluster->primary_switch().set_cpu_handler(nullptr);
  cluster->node(0).communicator()->exclude_replica(2);
  cluster->run_for(milliseconds(150));
  ASSERT_FALSE(cluster->node(0).accelerated());
  ASSERT_EQ(ok, 5) << "nothing may be left outstanding before the fallback commits";

  for (int k = 0; k < 5; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 4),
                                           [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(10));
  EXPECT_EQ(ok, 10) << "commits after an idle fallback must not stall";
  EXPECT_EQ(cluster->node(1).last_delivered_seq(), 10u);
}

TEST(P4ceFallback, RerouteKeepsLateCompletionsFromTheFreedCommunicator) {
  // 34-packet writes at a 256 B MTU: after a fallback the direct QPs (no
  // retries) error toward both replicas, so the leader reroutes while
  // ACKs are still due on its old QPs. Those completions must not reach the
  // communicator the reroute freed (AddressSanitizer catches the read).
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = Mode::kP4ce;
  options.cal.max_outstanding = 16;
  options.cal.mtu = 256;
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());

  // A closed loop of 7 batches (16 x 512 B values each) until the reroute.
  const auto& reroutes = cluster->sim().obs().metrics.counter("consensus.reroutes");
  std::function<void()> propose_next = [&] {
    std::ignore = cluster->node(0).propose_batch(std::vector<Bytes>(16, Bytes(512, 5)),
                                                 [&](Status, u64) {
                                                   if (reroutes.value() == 0) propose_next();
                                                 });
  };
  for (int k = 0; k < 7; ++k) propose_next();
  const SimTime deadline = cluster->now() + milliseconds(20);
  while (reroutes.value() == 0 && cluster->now() < deadline) cluster->run_for(microseconds(100));
  ASSERT_EQ(reroutes.value(), 1u);
  cluster->run_for(milliseconds(1));  // the old QPs' last ACKs land here
}

TEST(MuExclusion, ExcludedReplicaNoLongerWritten) {
  core::ClusterOptions options;
  options.machines = 5;
  options.mode = Mode::kMu;
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());

  cluster->node(0).communicator()->exclude_replica(4);
  const u64 delivered_before = cluster->node(4).delivered();
  int ok = 0;
  for (int k = 0; k < 10; ++k) {
    std::ignore = cluster->node(0).propose(Bytes(64, 2),
                                           [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(cluster->node(4).delivered(), delivered_before);
  EXPECT_EQ(cluster->node(1).delivered(), 10u);
}

TEST(MuQuorum, CommitNeedsExactlyFAcks) {
  // With 4 replicas and f=2, commits proceed with 2 replicas excluded but
  // fail with 3 excluded.
  core::ClusterOptions options;
  options.machines = 5;
  options.mode = Mode::kMu;
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  auto* comm = cluster->node(0).communicator();
  comm->exclude_replica(3);
  comm->exclude_replica(4);
  int ok = 0, failed = 0;
  std::ignore = cluster->node(0).propose(Bytes(8, 1), [&](Status st, u64) {
    st.is_ok() ? ++ok : ++failed;
  });
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 1);

  comm->exclude_replica(2);
  std::ignore = cluster->node(0).propose(Bytes(8, 1), [&](Status st, u64) {
    st.is_ok() ? ++ok : ++failed;
  });
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 1);
}

// ---------------------------------------------------------------------------
// A burst through each backend: the tables grow past the floor and come back
// ---------------------------------------------------------------------------

class BurstTest : public ::testing::TestWithParam<Mode> {};

TEST_P(BurstTest, ABurstCommitsInOrderAndGivesItsTablesBack) {
  constexpr u64 kBurst = 5'000;
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = GetParam();
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  Node& leader = cluster->node(0);
  ASSERT_TRUE(leader.leader_active());
  const sim::CpuExecutor& cpu = cluster->host(0).cpu;

  std::vector<u64> delivered;
  cluster->node(1).set_deliver([&](const LogEntry& entry) {
    ByteReader reader(entry.payload);
    delivered.push_back(reader.u64be());
  });
  std::vector<u64> committed;  // proposal index, in callback order
  std::vector<u64> seqs;
  u64 failed = 0;
  for (u64 i = 0; i < kBurst; ++i) {
    Bytes value;
    ByteWriter(value).u64be(i);
    value.resize(64);
    ASSERT_TRUE(leader
                    .propose(std::move(value),
                             [&, i](Status st, u64 seq) {
                               failed += st.is_ok() ? 0 : 1;
                               committed.push_back(i);
                               seqs.push_back(seq);
                             })
                    .is_ok());
  }

  std::size_t cpu_peak = 0;
  std::size_t sequencer_peak = 0;
  std::size_t ops_peak = 0;
  const SimTime deadline = cluster->now() + milliseconds(200);
  while ((committed.size() < kBurst || delivered.size() < kBurst) && cluster->now() < deadline) {
    cluster->run_for(microseconds(20));
    cpu_peak = std::max(cpu_peak, cpu.queue_capacity());
    sequencer_peak = std::max(sequencer_peak, leader.sequencer().capacity());
    ops_peak = std::max(ops_peak, leader.communicator()->op_table_capacity());
  }

  EXPECT_EQ(failed, 0u);
  ASSERT_EQ(committed.size(), kBurst);
  for (u64 i = 0; i < kBurst; ++i) {
    ASSERT_EQ(committed[i], i);
    if (i > 0) {
      ASSERT_GT(seqs[i], seqs[i - 1]);
    }
  }
  ASSERT_EQ(delivered.size(), kBurst);
  for (u64 i = 0; i < kBurst; ++i) ASSERT_EQ(delivered[i], i);

  // The burst took the executor, the sequencer and the communicator's op
  // tables past the floor (to 8,192 slots each); all are back.
  EXPECT_GT(cpu_peak, Ring<int>::kFloorSlots);
  EXPECT_GT(sequencer_peak, Ring<int>::kFloorSlots);
  EXPECT_GT(ops_peak, Ring<int>::kFloorSlots);
  EXPECT_LE(cpu.queue_capacity(), Ring<int>::kFloorSlots);
  EXPECT_LE(leader.sequencer().capacity(), Ring<int>::kFloorSlots);
  EXPECT_LE(leader.communicator()->op_table_capacity(), Ring<int>::kFloorSlots);
}

INSTANTIATE_TEST_SUITE_P(Backends, BurstTest,
                         ::testing::Values(Mode::kP4ce, Mode::kMu, Mode::kOneSided),
                         [](const auto& info) { return std::string(core::backend_name(info.param)); });

}  // namespace
}  // namespace p4ce::consensus
