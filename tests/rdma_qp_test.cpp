// Queue-pair transport tests over a direct NIC<->NIC link: writes (single
// and multi-packet), reads, PSN sequencing, ACK/NAK generation, permission
// enforcement, credits, retransmission and timeouts.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "obs/context.hpp"
#include "rdma/cm.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {
namespace {

/// Two hosts wired back-to-back. QPs are connected manually (no CM) so the
/// transport can be tested in isolation.
struct QpFixture : ::testing::Test {
  sim::Simulator sim;
  MemoryManager mem_a{1}, mem_b{2};
  net::Link link{sim, 100.0, 150};
  std::unique_ptr<Nic> nic_a, nic_b;
  CompletionQueue cq_a, cq_b;
  QueuePair* qp_a = nullptr;  // requester
  QueuePair* qp_b = nullptr;  // responder
  MemoryRegion* region_b = nullptr;

  std::vector<Completion> completions_a;

  void SetUp() override {
    nic_a = std::make_unique<Nic>(sim, "a", net::make_ip(0, 1), 0xA, mem_a);
    nic_b = std::make_unique<Nic>(sim, "b", net::make_ip(0, 2), 0xB, mem_b);
    link.attach(nic_a.get(), nic_b.get());
    nic_a->attach_link(&link, 0);
    nic_b->attach_link(&link, 1);
    cq_a.set_callback([this](const Completion& c) { completions_a.push_back(c); });
    connect(QpConfig{});
    region_b = &mem_b.register_region(1 << 20, kAccessRemoteRead | kAccessRemoteWrite);
  }

  void connect(QpConfig config) {
    qp_a = &nic_a->create_qp(cq_a, config);
    qp_b = &nic_b->create_qp(cq_b, config);
    qp_a->connect(nic_b->ip(), qp_b->qpn(), /*our_psn=*/100, /*expect=*/500);
    qp_b->connect(nic_a->ip(), qp_a->qpn(), /*our_psn=*/500, /*expect=*/100);
  }

  /// A run-wide rdma.qp.* count. qp_a only requests and qp_b only
  /// responds, so each count here is one QP's.
  u64 series(const char* name) { return sim.obs().metrics.counter(name).value(); }

  Bytes pattern(u32 n, u8 seed = 0) {
    Bytes out(n);
    for (u32 i = 0; i < n; ++i) out[i] = static_cast<u8>(seed + i);
    return out;
  }
};

TEST_F(QpFixture, SinglePacketWriteCompletesAndLands) {
  const Bytes data = pattern(64);
  ASSERT_TRUE(qp_a->post_write(7, data, region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].wr_id, 7u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(Bytes(region_b->bytes(), region_b->bytes() + 64), data);
  EXPECT_EQ(series("rdma.qp.msgs_received"), 1u);
}

TEST_F(QpFixture, MultiPacketWriteSegmentsByMtu) {
  const Bytes data = pattern(5000, 3);  // 5 packets at MTU 1024
  ASSERT_TRUE(qp_a->post_write(1, data, region_b->vaddr() + 64, region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(Bytes(region_b->bytes() + 64, region_b->bytes() + 64 + 5000), data);
  // 5 PSNs consumed by the message.
  EXPECT_EQ(qp_a->next_send_psn(), 105u);
  EXPECT_EQ(qp_b->expected_recv_psn(), 105u);
}

TEST_F(QpFixture, ZeroLengthWriteIsValid) {
  ASSERT_TRUE(qp_a->post_write(9, Bytes{}, region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
}

TEST_F(QpFixture, ReadReturnsRemoteBytes) {
  const Bytes data = pattern(3000, 9);
  std::copy(data.begin(), data.end(), region_b->bytes() + 100);
  ASSERT_TRUE(qp_a->post_read(11, region_b->vaddr() + 100, region_b->rkey(), 3000).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].read_data, data);
  // Multi-packet read consumed ceil(3000/1024)=3 PSNs.
  EXPECT_EQ(qp_a->next_send_psn(), 103u);
}

TEST_F(QpFixture, WrongRkeyYieldsRemoteAccessErrorAndErrorState) {
  ASSERT_TRUE(qp_a->post_write(1, pattern(64), region_b->vaddr(), 0xbad).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(QpFixture, OutOfBoundsWriteNaks) {
  ASSERT_TRUE(
      qp_a->post_write(1, pattern(64), region_b->vaddr() + region_b->length() - 8,
                       region_b->rkey())
          .is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteAccessError);
}

TEST_F(QpFixture, RevokedWritePermissionNaks) {
  // The Mu permission switch: the responder stops accepting writes from
  // this peer; in-flight and future writes fail with an access error.
  qp_b->set_allow_remote_write(false);
  ASSERT_TRUE(qp_a->post_write(1, pattern(64), region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(QpFixture, ReadsStillWorkWithWritePermissionRevoked) {
  qp_b->set_allow_remote_write(false);
  region_b->bytes()[0] = 0x77;
  ASSERT_TRUE(qp_a->post_read(2, region_b->vaddr(), region_b->rkey(), 1).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].read_data[0], 0x77);
}

TEST_F(QpFixture, PipelinedWritesCompleteInOrder) {
  for (u64 i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        qp_a->post_write(i, pattern(256, static_cast<u8>(i)), region_b->vaddr() + i * 256,
                         region_b->rkey())
            .is_ok());
  }
  sim.run();
  ASSERT_EQ(completions_a.size(), 12u);
  for (u64 i = 0; i < 12; ++i) EXPECT_EQ(completions_a[i].wr_id, i);
  for (u64 i = 0; i < 12; ++i) {
    EXPECT_EQ(region_b->bytes()[i * 256], static_cast<u8>(i));
  }
}

TEST_F(QpFixture, WindowLimitsInFlightMessages) {
  QpConfig small;
  small.max_send_wr = 2;
  connect(small);
  for (u64 i = 0; i < 6; ++i) {
    ASSERT_TRUE(qp_a->post_write(i, pattern(64), region_b->vaddr(), region_b->rkey()).is_ok());
  }
  EXPECT_LE(qp_a->inflight_messages(), 2u);
  EXPECT_EQ(qp_a->queued_messages(), 4u);
  sim.run();
  EXPECT_EQ(completions_a.size(), 6u);
  EXPECT_EQ(qp_a->queued_messages(), 0u);
}

TEST_F(QpFixture, SendQueueCapacityBounded) {
  QpConfig tiny;
  tiny.max_send_wr = 1;
  tiny.max_queued_wr = 3;
  connect(tiny);
  Status last = Status::ok();
  int accepted = 0;
  for (u64 i = 0; i < 10; ++i) {
    last = qp_a->post_write(i, pattern(8), region_b->vaddr(), region_b->rkey());
    if (last.is_ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST_F(QpFixture, UnsignaledWritesProduceNoCompletion) {
  ASSERT_TRUE(qp_a->post_write(1, pattern(8), region_b->vaddr(), region_b->rkey(),
                               /*signaled=*/false)
                  .is_ok());
  ASSERT_TRUE(qp_a->post_write(2, pattern(8), region_b->vaddr() + 8, region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].wr_id, 2u);
}

TEST_F(QpFixture, PostInResetStateFails) {
  QueuePair& fresh = nic_a->create_qp(cq_a, {});
  EXPECT_EQ(fresh.post_write(1, pattern(8), 0, 0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(QpFixture, RetransmitsAfterLossAndRecovers) {
  // Cut the link briefly: the first transmission is lost; the retransmit
  // timer recovers the message.
  link.cut();
  ASSERT_TRUE(qp_a->post_write(1, pattern(64), region_b->vaddr(), region_b->rkey()).is_ok());
  sim.schedule(50'000, [&] { link.restore(); });
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_GE(series("rdma.qp.retransmits"), 1u);
}

TEST_F(QpFixture, RetryExhaustionErrorsTheQp) {
  QpConfig config;
  config.max_retries = 2;
  connect(config);
  WcStatus error_status = WcStatus::kSuccess;
  qp_a->set_error_callback([&](WcStatus s) { error_status = s; });
  link.cut();
  ASSERT_TRUE(qp_a->post_write(1, pattern(64), region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRetryExceeded);
  EXPECT_EQ(qp_a->state(), QpState::kError);
  EXPECT_EQ(error_status, WcStatus::kRetryExceeded);
  // (timeout * (retries+1)) elapsed before giving up.
  EXPECT_GE(sim.now(), 3 * QpConfig{}.retransmit_timeout);
}

TEST_F(QpFixture, TimeoutKeepsItsTiePlaceAfterManyReArms) {
  // A chain of writes re-arms the retransmit timer on every ACK. At the
  // last ACK the link goes down, so the last write times out one timeout
  // after that ACK. An eagerly re-armed timer is an event scheduled when the
  // ACK's handling re-arms it, after the completion callback returns: the
  // two probes the callback schedules for the deadline run before the
  // timeout, and one scheduled 1 ns later for the same instant runs after.
  constexpr u64 kWrites = 50;
  const Duration timeout = QpConfig::retransmit_timeout;
  u64 posted = 0;
  std::vector<std::pair<char, u64>> probes;  // (probe, retransmissions seen)
  const auto probe = [&](char name) {
    return [&, name] { probes.emplace_back(name, series("rdma.qp.retransmits")); };
  };
  const auto post = [&] {
    ASSERT_TRUE(
        qp_a->post_write(posted++, pattern(64), region_b->vaddr(), region_b->rkey()).is_ok());
  };
  cq_a.set_callback([&](const Completion& c) {
    completions_a.push_back(c);
    if (posted < kWrites - 1) {
      post();
    } else if (posted == kWrites - 1) {
      link.cut();
      sim.schedule(timeout, probe('b'));
      post();
      sim.schedule(timeout, probe('c'));
      sim.schedule(1, [&] { sim.schedule(timeout - 1, probe('a')); });
    }
  });
  post();
  sim.run();
  ASSERT_EQ(completions_a.size(), kWrites);
  EXPECT_EQ(completions_a.back().status, WcStatus::kRetryExceeded);
  EXPECT_EQ(probes, (std::vector<std::pair<char, u64>>{{'b', 0}, {'c', 0}, {'a', 1}}));
  // Re-arming cancelled nothing: no dead entry was left in the queue.
  EXPECT_EQ(sim.cancelled_pops(), 0u);
}

TEST_F(QpFixture, ErrorStateFlushesQueuedWork) {
  link.cut();
  QpConfig config;
  config.max_retries = 0;
  config.max_send_wr = 1;
  connect(config);
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(qp_a->post_write(i, pattern(8), region_b->vaddr(), region_b->rkey()).is_ok());
  }
  sim.run();
  ASSERT_EQ(completions_a.size(), 4u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRetryExceeded);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(completions_a[i].status, WcStatus::kFlushed);
  }
}

TEST_F(QpFixture, DuplicateDeliveryIsIdempotent) {
  // Force a retransmission of an already-delivered message by cutting the
  // reverse path conceptually: easiest is to retransmit via timer by
  // delaying the ACK — here we simply deliver the same write twice through
  // a second post at the same address with identical data, plus verify
  // duplicate PSN handling by observing message counters.
  const Bytes data = pattern(64);
  ASSERT_TRUE(qp_a->post_write(1, data, region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  const u64 received_once = series("rdma.qp.msgs_received");
  // Hand-craft a duplicate of the delivered packet (stale PSN).
  net::Packet dup;
  dup.ip.src = nic_a->ip();
  dup.ip.dst = nic_b->ip();
  dup.bth.opcode = Opcode::kWriteOnly;
  dup.bth.dest_qp = qp_b->qpn();
  dup.bth.psn = 100;  // already consumed
  dup.bth.ack_request = true;
  dup.reth = Reth{region_b->vaddr(), region_b->rkey(), 64};
  dup.payload = Bytes(data);
  qp_b->handle_packet(dup);
  sim.run();
  EXPECT_EQ(series("rdma.qp.msgs_received"), received_once);  // not re-executed
  EXPECT_EQ(completions_a.size(), 1u);                  // no spurious completion
}

TEST_F(QpFixture, PsnGapTriggersNakAndGoBackN) {
  // Simulate a lost packet by injecting a future-PSN packet directly.
  net::Packet future;
  future.ip.src = nic_a->ip();
  future.ip.dst = nic_b->ip();
  future.bth.opcode = Opcode::kWriteOnly;
  future.bth.dest_qp = qp_b->qpn();
  future.bth.psn = 105;  // expected is 100
  future.bth.ack_request = true;
  future.reth = Reth{region_b->vaddr(), region_b->rkey(), 8};
  future.payload = pattern(8);
  qp_b->handle_packet(future);
  sim.run();
  // Responder did not execute it and did not advance.
  EXPECT_EQ(qp_b->expected_recv_psn(), 100u);
  EXPECT_EQ(series("rdma.qp.msgs_received"), 0u);
}

TEST_F(QpFixture, CreditsAdvertisedInAcks) {
  ASSERT_TRUE(qp_a->post_write(1, pattern(8), region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  // An idle NIC advertises a full (clamped to 31) buffer.
  EXPECT_GT(qp_a->last_seen_credits(), 0u);
  EXPECT_LE(qp_a->last_seen_credits(), 31u);
}

class TransferSizeTest : public ::testing::TestWithParam<u32> {};

TEST_P(TransferSizeTest, WritesOfAllSizesArriveIntact) {
  sim::Simulator sim;
  MemoryManager mem_a(1), mem_b(2);
  net::Link link(sim, 100.0, 150);
  Nic nic_a(sim, "a", net::make_ip(0, 1), 0xA, mem_a);
  Nic nic_b(sim, "b", net::make_ip(0, 2), 0xB, mem_b);
  link.attach(&nic_a, &nic_b);
  nic_a.attach_link(&link, 0);
  nic_b.attach_link(&link, 1);
  CompletionQueue cq_a, cq_b;
  QueuePair& qp_a = nic_a.create_qp(cq_a, {});
  QueuePair& qp_b = nic_b.create_qp(cq_b, {});
  qp_a.connect(nic_b.ip(), qp_b.qpn(), 0, 0);
  qp_b.connect(nic_a.ip(), qp_a.qpn(), 0, 0);
  auto& region = mem_b.register_region(1 << 20, kAccessRemoteWrite | kAccessRemoteRead);

  Rng rng(GetParam());
  Bytes data(GetParam());
  for (auto& b : data) b = static_cast<u8>(rng.next_u32());
  ASSERT_TRUE(qp_a.post_write(1, data, region.vaddr(), region.rkey()).is_ok());
  sim.run();
  ASSERT_TRUE(cq_a.poll().has_value());
  EXPECT_EQ(Bytes(region.bytes(), region.bytes() + data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferSizeTest,
                         ::testing::Values(1, 63, 64, 1023, 1024, 1025, 2048, 4096, 8192,
                                           65536, 262144));

}  // namespace
}  // namespace p4ce::rdma
