// Wire-format and link-model tests: byte-exact header codecs, packet
// round-trips (including randomized property sweeps), wire-size accounting,
// and the bandwidth/propagation/queueing/cut behaviour of links.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace p4ce::net {
namespace {

TEST(EthernetHeader, RoundTrip) {
  EthernetHeader h;
  h.dst_mac = 0x0011'2233'4455ull;
  h.src_mac = 0xaabb'ccdd'eeffull;
  h.ethertype = kEtherTypeIpv4;
  Bytes buf;
  ByteWriter w(buf);
  h.encode(w);
  EXPECT_EQ(buf.size(), EthernetHeader::kWireSize);
  ByteReader r(buf);
  EXPECT_EQ(EthernetHeader::decode(r), h);
}

TEST(Ipv4Header, RoundTrip) {
  Ipv4Header h;
  h.src = make_ip(0, 10);
  h.dst = make_ip(0, 11);
  h.total_length = 1500;
  h.ttl = 17;
  Bytes buf;
  ByteWriter w(buf);
  h.encode(w);
  EXPECT_EQ(buf.size(), Ipv4Header::kWireSize);
  ByteReader r(buf);
  EXPECT_EQ(Ipv4Header::decode(r), h);
}

TEST(Ipv4Header, ChecksumMatchesRfcExample) {
  // Verify the one's-complement property: re-summing the encoded header
  // including the checksum yields 0xffff.
  Ipv4Header h;
  h.src = 0xc0a80001;
  h.dst = 0xc0a800c7;
  h.total_length = 0x0073;
  h.ttl = 64;
  h.protocol = 17;
  Bytes buf;
  ByteWriter w(buf);
  h.encode(w);
  u32 sum = 0;
  for (std::size_t i = 0; i + 1 < buf.size(); i += 2) {
    sum += (static_cast<u32>(buf[i]) << 8) | buf[i + 1];
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  EXPECT_EQ(sum, 0xffffu);
}

TEST(UdpHeader, RoundTripAndRocePort) {
  UdpHeader h;
  h.src_port = 0xc123;
  h.length = 512;
  Bytes buf;
  ByteWriter w(buf);
  h.encode(w);
  ByteReader r(buf);
  const UdpHeader d = UdpHeader::decode(r);
  EXPECT_EQ(d, h);
  EXPECT_EQ(d.dst_port, kRoceUdpPort);
}

TEST(Ipv4Format, DottedQuad) {
  EXPECT_EQ(ipv4_to_string(make_ip(1, 2)), "10.0.1.2");
  EXPECT_EQ(ipv4_to_string(0xffffffff), "255.255.255.255");
}

net::Packet random_packet(Rng& rng) {
  Packet p;
  p.eth.dst_mac = rng.next_u64() & 0xffff'ffff'ffffull;
  p.eth.src_mac = rng.next_u64() & 0xffff'ffff'ffffull;
  p.ip.src = rng.next_u32();
  p.ip.dst = rng.next_u32();
  p.bth.opcode = static_cast<rdma::Opcode>(rng.next_below(18));
  p.bth.dest_qp = rng.next_u32() & 0x00ffffff;
  p.bth.psn = rng.next_u32() & kPsnMask;
  p.bth.ack_request = rng.next_bool(0.5);
  if (rng.next_bool(0.5)) {
    p.reth = rdma::Reth{rng.next_u64(), rng.next_u32(), rng.next_u32()};
  }
  if (rng.next_bool(0.3)) {
    // The syndrome byte encodes either a NAK code or a credit count, so only
    // the selected interpretation's field is meaningful on the wire.
    rdma::Aeth aeth;
    aeth.is_nak = rng.next_bool(0.3);
    if (aeth.is_nak) {
      aeth.nak_code = static_cast<rdma::NakCode>(rng.next_below(4));
    } else {
      aeth.credits = static_cast<u8>(rng.next_below(32));
    }
    aeth.msn = rng.next_u32() & kPsnMask;
    p.aeth = aeth;
  }
  if (rng.next_bool(0.2)) {
    rdma::CmMessage cm;
    cm.type = static_cast<rdma::CmType>(1 + rng.next_below(5));
    cm.transaction_id = rng.next_u32();
    cm.sender_qpn = rng.next_u32() & 0x00ffffff;
    cm.starting_psn = rng.next_u32() & kPsnMask;
    cm.service_id = static_cast<u16>(rng.next_u32());
    cm.private_data.resize(rng.next_below(64));
    for (auto& b : cm.private_data) b = static_cast<u8>(rng.next_u32());
    p.cm = std::move(cm);
  }
  Bytes payload(rng.next_below(2048));
  for (auto& b : payload) b = static_cast<u8>(rng.next_u32());
  p.payload = std::move(payload);
  return p;
}

class PacketRoundTripTest : public ::testing::TestWithParam<u64> {};

TEST_P(PacketRoundTripTest, EncodeDecodeIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Packet p = random_packet(rng);
    bool ok = false;
    const Packet d = Packet::decode(p.encode(), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(d.eth, p.eth);
    EXPECT_EQ(d.ip.src, p.ip.src);
    EXPECT_EQ(d.ip.dst, p.ip.dst);
    EXPECT_EQ(d.bth, p.bth);
    EXPECT_EQ(d.reth, p.reth);
    EXPECT_EQ(d.aeth, p.aeth);
    EXPECT_EQ(d.cm, p.cm);
    EXPECT_EQ(d.payload, p.payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketRoundTripTest, ::testing::Values(1, 7, 99, 12345));

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
}

TEST(Packet, ClassificationHelpers) {
  Packet p;
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
