// Wire-size and link-model tests: every header's wire size as frame_size()
// accounts it, packet classification, and the bandwidth/propagation/
// queueing/cut behaviour of links.
#include <gtest/gtest.h>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace p4ce::net {
namespace {

TEST(Packet, WireSizeAccountsAllHeaders) {
  Packet p;
  p.payload = Bytes(1024, 0);
  // eth 14 + ip 20 + udp 8 + bth 12 + payload 1024 + icrc 4 + fcs 4 = 1086.
  EXPECT_EQ(p.frame_size(), 1086u);
  EXPECT_EQ(p.wire_size(), 1086u + kPhyOverheadBytes);
  p.reth = rdma::Reth{};
  EXPECT_EQ(p.frame_size(), 1086u + 16);
  p.aeth = rdma::Aeth{};
  EXPECT_EQ(p.frame_size(), 1086u + 16 + 4);

  // 62 B is the empty packet: the four headers above, ICRC and FCS. Atomics
  // add one request header, 28 B plain and 44 B with the two masks; the
  // response adds the 8 B original value after the AETH.
  Packet atomic;
  atomic.atomic_eth = rdma::AtomicEth{};
  EXPECT_EQ(atomic.frame_size(), 62u + 28);
  atomic.atomic_eth->masked = true;
  EXPECT_EQ(atomic.frame_size(), 62u + 44);
  Packet atomic_ack;
  atomic_ack.aeth = rdma::Aeth{};
  atomic_ack.atomic_ack_eth = rdma::AtomicAckEth{};
  EXPECT_EQ(atomic_ack.frame_size(), 62u + 4 + 8);

  // A CM message: 16 B of fixed fields plus its private data.
  Packet cm;
  cm.cm = rdma::CmMessage{};
  EXPECT_EQ(cm.frame_size(), 62u + 16);
  cm.cm->private_data = Bytes(40, 0);
  EXPECT_EQ(cm.frame_size(), 62u + 16 + 40);
}

TEST(Packet, ClassificationHelpers) {
  Packet p;
  EXPECT_EQ(p.udp.dst_port, kRoceUdpPort);  // every packet is RoCE v2
  p.bth.opcode = rdma::Opcode::kWriteOnly;
  EXPECT_TRUE(p.is_write());
  EXPECT_FALSE(p.is_ack());
  p.bth.opcode = rdma::Opcode::kAcknowledge;
  EXPECT_TRUE(p.is_ack());
  EXPECT_FALSE(p.is_nak());
  p.aeth = rdma::Aeth{.is_nak = true,
                      .nak_code = rdma::NakCode::kRemoteAccessError,
                      .credits = 0,
                      .msn = 0};
  EXPECT_TRUE(p.is_nak());
  p.bth.opcode = rdma::Opcode::kReadRequest;
  EXPECT_TRUE(p.is_read_request());
}

// ---------------------------------------------------------------------------
// Link model
// ---------------------------------------------------------------------------

struct Recorder : PacketSink {
  std::vector<std::pair<SimTime, Packet>> received;
  sim::Simulator* sim = nullptr;
  void deliver(Packet&& p) override { received.emplace_back(sim->now(), std::move(p)); }
};

struct LinkFixture : ::testing::Test {
  sim::Simulator sim;
  Recorder a, b;
  void wire(Link& link) {
    a.sim = &sim;
    b.sim = &sim;
    link.attach(&a, &b);
  }
  static Packet sized(u32 payload) {
    Packet p;
    p.payload = Bytes(payload, 0);
    return p;
  }
};

TEST_F(LinkFixture, DeliversAfterSerializationPlusPropagation) {
  Link link(sim, 100.0, 500);  // 100 Gbit/s, 500 ns propagation
  wire(link);
  Packet p = sized(1024);
  const u32 wire_bytes = p.wire_size();
  link.send(0, std::move(p));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, serialization_delay(wire_bytes, 100.0) + 500);
}

TEST_F(LinkFixture, BackToBackPacketsQueue) {
  Link link(sim, 100.0, 0);
  wire(link);
  const Duration ser = serialization_delay(sized(1024).wire_size(), 100.0);
  link.send(0, sized(1024));
  link.send(0, sized(1024));
  link.send(0, sized(1024));
  sim.run();
  ASSERT_EQ(b.received.size(), 3u);
  EXPECT_EQ(b.received[0].first, ser);
  EXPECT_EQ(b.received[1].first, 2 * ser);
  EXPECT_EQ(b.received[2].first, 3 * ser);
}

TEST_F(LinkFixture, DirectionsAreIndependent) {
  Link link(sim, 100.0, 100);
  wire(link);
  link.send(0, sized(4096));
  link.send(1, sized(64));
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received.size(), 1u);
  // The small reverse packet is not delayed behind the big forward one.
  EXPECT_LT(a.received[0].first, b.received[0].first);
}

TEST_F(LinkFixture, ThroughputMatchesBandwidth) {
  Link link(sim, 100.0, 0);
  wire(link);
  const int n = 1000;
  u64 wire_bytes = 0;
  for (int i = 0; i < n; ++i) {
    Packet p = sized(1024);
    wire_bytes += p.wire_size();
    link.send(0, std::move(p));
  }
  sim.run();
  ASSERT_EQ(b.received.size(), static_cast<std::size_t>(n));
  const double gbps = static_cast<double>(wire_bytes) * 8.0 / static_cast<double>(sim.now());
  EXPECT_NEAR(gbps, 100.0, 1.0);
  EXPECT_EQ(link.wire_bytes_sent(0), wire_bytes);
  EXPECT_EQ(link.packets_sent(0), static_cast<u64>(n));
}

TEST_F(LinkFixture, CutDropsInFlightAndFuturePackets) {
  Link link(sim, 100.0, 1000);
  wire(link);
  link.send(0, sized(64));
  sim.run_until(10);  // packet still in flight
  link.cut();
  link.send(0, sized(64));
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(link.is_cut());
}

TEST_F(LinkFixture, RestoreAllowsNewTraffic) {
  Link link(sim, 100.0, 10);
  wire(link);
  link.cut();
  link.restore();
  link.send(0, sized(64));
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}


TEST_F(LinkFixture, RestoreDoesNotReviveAPacketCutOnTheWire) {
  Link link(sim, 100.0, 1000);
  wire(link);
  const Duration ser = serialization_delay(sized(64).wire_size(), 100.0);
  link.send(0, sized(64));
  sim.schedule_at(10, [&] { link.cut(); });
  sim.schedule_at(20, [&] { link.restore(); });
  sim.schedule_at(30, [&] { link.send(0, sized(64)); });
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, 30 + ser + 1000);
  EXPECT_EQ(link.packets_sent(0), 2u);
}

TEST_F(LinkFixture, MixedSizesLandInSendOrder) {
  Link link(sim, 100.0, 50);
  wire(link);
  const u32 sizes[] = {1024, 0, 4096, 64};
  SimTime done = 0;
  std::vector<SimTime> expected;
  for (const u32 size : sizes) {
    done += serialization_delay(sized(size).wire_size(), 100.0);
    expected.push_back(done + 50);
    link.send(0, sized(size));
  }
  sim.run();
  ASSERT_EQ(b.received.size(), std::size(sizes));
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    EXPECT_EQ(b.received[i].first, expected[i]);
    EXPECT_EQ(b.received[i].second.payload.size(), sizes[i]);
  }
}

}  // namespace
}  // namespace p4ce::net
