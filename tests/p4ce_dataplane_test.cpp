// P4CE data-plane unit tests, exercising the pipeline program directly:
// scatter classification and per-replica header rewriting (§IV-B), gather
// counting / f-th-ACK forwarding / NAK passthrough / min-credit folding
// (§IV-C/D), group lifecycle, and both ACK-drop placements.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "p4ce/dataplane.hpp"
#include "sim/simulator.hpp"

namespace p4ce::p4 {
namespace {

constexpr Ipv4Addr kSwitchIp = net::make_ip(1, 1);
constexpr Ipv4Addr kLeaderIp = net::make_ip(0, 10);

GroupSpec make_spec(u32 replicas, u32 f = 0) {
  GroupSpec spec;
  spec.group_idx = 0;
  spec.mcast_group_id = 100;
  spec.bcast_qpn = 0x8000;
  spec.aggr_qpn = 0xc000;
  spec.f_needed = f != 0 ? f : (replicas + 1) / 2;
  spec.virtual_rkey = 0x1234;
  spec.leader = LeaderEndpoint{kLeaderIp, 0xE1, 0x111, 0};
  for (u32 r = 0; r < replicas; ++r) {
    ConnectionEntry conn;
    conn.ip = net::make_ip(0, static_cast<u8>(11 + r));
    conn.mac = 0xE2 + r;
    conn.qpn = 0x200 + r;
    conn.port = 1 + r;
    conn.vaddr = 0x7000'0000ull + r * 0x10000;
    conn.buffer_len = 1 << 20;
    conn.rkey = 0x5000 + r;
    conn.psn_delta = r * 1000;  // exercise nonzero PSN translation
    spec.replicas.push_back(conn);
  }
  return spec;
}

net::Packet write_packet(Psn psn, u64 vaddr = 0x40, u32 len = 64) {
  net::Packet p;
  p.ip.src = kLeaderIp;
  p.ip.dst = kSwitchIp;
  p.bth.opcode = rdma::Opcode::kWriteOnly;
  p.bth.dest_qp = 0x8000;
  p.bth.psn = psn;
  p.bth.ack_request = true;
  p.reth = rdma::Reth{vaddr, 0x1234, len};
  p.payload = Bytes(len, 0);
  return p;
}

net::Packet ack_packet(u32 replica, Psn replica_psn, u8 credits = 20, bool nak = false) {
  net::Packet p;
  p.ip.src = net::make_ip(0, static_cast<u8>(11 + replica));
  p.ip.dst = kSwitchIp;
  p.bth.opcode = rdma::Opcode::kAcknowledge;
  p.bth.dest_qp = 0xc000;
  p.bth.psn = replica_psn;
  rdma::Aeth aeth;
  aeth.is_nak = nak;
  aeth.nak_code = rdma::NakCode::kRemoteAccessError;
  aeth.credits = nak ? 0 : credits;
  p.aeth = aeth;
  return p;
}

struct DataplaneFixture : ::testing::Test {
  sim::Simulator sim;
  P4ceDataplane dataplane{sim, "tofino", kSwitchIp};

  void SetUp() override {
    for (u32 i = 0; i < 6; ++i) {
      std::ignore = dataplane.add_route(net::make_ip(0, static_cast<u8>(10 + i)), i);
    }
  }

  sw::PacketContext run_ingress(net::Packet p) {
    sw::PacketContext ctx;
    ctx.packet = std::move(p);
    dataplane.ingress(ctx);
    return ctx;
  }
};

TEST_F(DataplaneFixture, GroupInstallValidation) {
  GroupSpec bad = make_spec(2);
  bad.group_idx = kMaxGroups;
  EXPECT_EQ(dataplane.install_group(bad).code(), StatusCode::kInvalidArgument);

  GroupSpec spec = make_spec(2);
  EXPECT_TRUE(dataplane.install_group(spec).is_ok());
  EXPECT_EQ(dataplane.install_group(spec).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(dataplane.group_active(0));
  EXPECT_TRUE(dataplane.remove_group(0).is_ok());
  EXPECT_FALSE(dataplane.group_active(0));
  EXPECT_EQ(dataplane.remove_group(0).code(), StatusCode::kNotFound);
}

TEST_F(DataplaneFixture, PlainTrafficForwardsByL3) {
  net::Packet p;
  p.ip.src = kLeaderIp;
  p.ip.dst = net::make_ip(0, 12);
  p.bth.opcode = rdma::Opcode::kWriteOnly;
  p.bth.dest_qp = 0x300;  // some direct QP, not a BCast one
  auto ctx = run_ingress(std::move(p));
  EXPECT_FALSE(ctx.drop);
  ASSERT_TRUE(ctx.unicast_port.has_value());
  EXPECT_EQ(*ctx.unicast_port, 2u);
  EXPECT_EQ(dataplane.l3_forwarded(), 1u);
}

TEST_F(DataplaneFixture, CmToSwitchIsPunted) {
  net::Packet p;
  p.ip.src = kLeaderIp;
  p.ip.dst = kSwitchIp;
  p.bth.dest_qp = rdma::kCmQpn;
  p.cm = rdma::CmMessage{};
  auto ctx = run_ingress(std::move(p));
  EXPECT_TRUE(ctx.punt_to_cpu);
}

TEST_F(DataplaneFixture, CmToHostIsForwardedNotPunted) {
  net::Packet p;
  p.ip.src = kSwitchIp;
  p.ip.dst = net::make_ip(0, 11);
  p.bth.dest_qp = rdma::kCmQpn;
  p.cm = rdma::CmMessage{};
  auto ctx = run_ingress(std::move(p));
  EXPECT_FALSE(ctx.punt_to_cpu);
  ASSERT_TRUE(ctx.unicast_port.has_value());
}

TEST_F(DataplaneFixture, ScatterSelectsMulticastGroupAndResetsNumRecv) {
  std::ignore = dataplane.install_group(make_spec(4));
  auto ctx = run_ingress(write_packet(42));
  EXPECT_FALSE(ctx.drop);
  ASSERT_TRUE(ctx.mcast_group.has_value());
  EXPECT_EQ(*ctx.mcast_group, 100u);
  EXPECT_EQ(dataplane.group_stats(0).requests_scattered, 1u);
}

TEST_F(DataplaneFixture, ScatterRejectsWrongVirtualRkey) {
  std::ignore = dataplane.install_group(make_spec(2));
  net::Packet p = write_packet(1);
  p.reth->rkey = 0xbad;
  auto ctx = run_ingress(std::move(p));
  EXPECT_TRUE(ctx.drop);
  EXPECT_EQ(dataplane.group_stats(0).bad_rkey_drops, 1u);
}

TEST_F(DataplaneFixture, RequestToUnknownBcastQpDrops) {
  auto ctx = run_ingress(write_packet(1));  // no group installed
  EXPECT_TRUE(ctx.drop);
}

TEST_F(DataplaneFixture, EgressRewritesEveryScatterField) {
  const GroupSpec spec = make_spec(4);
  std::ignore = dataplane.install_group(spec);
  auto ingress_ctx = run_ingress(write_packet(42, /*vaddr=*/0x80, /*len=*/64));
  ASSERT_TRUE(ingress_ctx.mcast_group.has_value());

  for (u16 rid = 0; rid < 4; ++rid) {
    sw::PacketContext ctx = ingress_ctx;  // TM carbon copy
    ctx.replication_id = rid;
    ctx.egress_port = spec.replicas[rid].port;
    dataplane.egress(ctx);
    ASSERT_FALSE(ctx.drop);
    const ConnectionEntry& conn = spec.replicas[rid];
    // "it rewrites the destination queue pair, the authentication key, the
    // virtual address, the packet sequence number and the IP address".
    EXPECT_EQ(ctx.packet.ip.dst, conn.ip);
    EXPECT_EQ(ctx.packet.ip.src, kSwitchIp);
    EXPECT_EQ(ctx.packet.eth.dst_mac, conn.mac);
    EXPECT_EQ(ctx.packet.bth.dest_qp, conn.qpn);
    EXPECT_EQ(ctx.packet.bth.psn, psn_add(42, conn.psn_delta));
    ASSERT_TRUE(ctx.packet.reth.has_value());
    EXPECT_EQ(ctx.packet.reth->rkey, conn.rkey);
    EXPECT_EQ(ctx.packet.reth->vaddr, conn.vaddr + 0x80);
    EXPECT_EQ(ctx.packet.payload.size(), 64u);  // payload untouched
  }
}

TEST_F(DataplaneFixture, MiddlePacketsRewriteOnlyAddressingAndPsn) {
  const GroupSpec spec = make_spec(2);
  std::ignore = dataplane.install_group(spec);
  net::Packet middle;
  middle.ip.src = kLeaderIp;
  middle.ip.dst = kSwitchIp;
  middle.bth.opcode = rdma::Opcode::kWriteMiddle;
  middle.bth.dest_qp = 0x8000;
  middle.bth.psn = 7;
  middle.payload = Bytes(1024, 0);
  auto ctx = run_ingress(std::move(middle));
  ASSERT_TRUE(ctx.mcast_group.has_value());
  ctx.replication_id = 1;
  dataplane.egress(ctx);
  EXPECT_EQ(ctx.packet.bth.psn, psn_add(7, spec.replicas[1].psn_delta));
  EXPECT_EQ(ctx.packet.ip.dst, spec.replicas[1].ip);
  EXPECT_FALSE(ctx.packet.reth.has_value());
}

TEST_F(DataplaneFixture, GatherForwardsExactlyTheFthAck) {
  const GroupSpec spec = make_spec(4);  // f = 2
  std::ignore = dataplane.install_group(spec);
  run_ingress(write_packet(10));

  // First ACK (replica 0): counted, dropped.
  auto c0 = run_ingress(ack_packet(0, psn_add(10, spec.replicas[0].psn_delta)));
  EXPECT_TRUE(c0.drop);
  // Second ACK (replica 2): the f-th -> forwarded to the leader port.
  auto c1 = run_ingress(ack_packet(2, psn_add(10, spec.replicas[2].psn_delta)));
  EXPECT_FALSE(c1.drop);
  ASSERT_TRUE(c1.unicast_port.has_value());
  EXPECT_EQ(*c1.unicast_port, spec.leader.port);
  // Remaining ACKs: dropped again.
  auto c2 = run_ingress(ack_packet(1, psn_add(10, spec.replicas[1].psn_delta)));
  EXPECT_TRUE(c2.drop);
  auto c3 = run_ingress(ack_packet(3, psn_add(10, spec.replicas[3].psn_delta)));
  EXPECT_TRUE(c3.drop);

  const auto stats = dataplane.group_stats(0);
  EXPECT_EQ(stats.acks_gathered, 4u);
  EXPECT_EQ(stats.acks_forwarded, 1u);

  // The forwarded ACK, after egress, is addressed to the leader with the
  // leader's PSN numbering restored.
  dataplane.egress(c1);
  EXPECT_EQ(c1.packet.ip.dst, kLeaderIp);
  EXPECT_EQ(c1.packet.bth.dest_qp, spec.leader.qpn);
  EXPECT_EQ(c1.packet.bth.psn, 10u);
}

TEST_F(DataplaneFixture, DistinctPsnsAggregateIndependently) {
  const GroupSpec spec = make_spec(2);  // f = 1
  std::ignore = dataplane.install_group(spec);
  run_ingress(write_packet(1));
  run_ingress(write_packet(2));
  auto a = run_ingress(ack_packet(0, psn_add(1, 0)));
  auto b = run_ingress(ack_packet(0, psn_add(2, 0)));
  EXPECT_FALSE(a.drop);
  EXPECT_FALSE(b.drop);
  EXPECT_EQ(dataplane.group_stats(0).acks_forwarded, 2u);
}

TEST_F(DataplaneFixture, ScatterResetClearsStaleNumRecvSlot) {
  // A PSN slot is reused (mod 256) by a later request: the reset on scatter
  // must clear the stale count, otherwise the f-th-ACK detection misfires.
  const GroupSpec spec = make_spec(2);  // f = 1
  std::ignore = dataplane.install_group(spec);
  run_ingress(write_packet(5));
  run_ingress(ack_packet(0, psn_add(5, 0)));      // forwarded (count 1)
  run_ingress(ack_packet(1, psn_add(5, 1000)));   // surplus (count 2)
  // New request on PSN 5 + 256 lands in the same slot.
  run_ingress(write_packet(5 + 256));
  auto ctx = run_ingress(ack_packet(0, psn_add(5 + 256, 0)));
  EXPECT_FALSE(ctx.drop) << "stale NumRecv would make this the 3rd ACK";
  EXPECT_EQ(dataplane.group_stats(0).acks_forwarded, 2u);
}

TEST_F(DataplaneFixture, NakForwardedImmediately) {
  const GroupSpec spec = make_spec(4);  // f = 2
  std::ignore = dataplane.install_group(spec);
  run_ingress(write_packet(3));
  auto ctx = run_ingress(ack_packet(1, psn_add(3, spec.replicas[1].psn_delta), 0, /*nak=*/true));
  EXPECT_FALSE(ctx.drop);
  ASSERT_TRUE(ctx.unicast_port.has_value());
  EXPECT_EQ(*ctx.unicast_port, spec.leader.port);
  EXPECT_EQ(dataplane.group_stats(0).naks_forwarded, 1u);
  dataplane.egress(ctx);
  EXPECT_TRUE(ctx.packet.is_nak());
  EXPECT_EQ(ctx.packet.ip.dst, kLeaderIp);
}

TEST_F(DataplaneFixture, AckFromNonMemberDropped) {
  std::ignore = dataplane.install_group(make_spec(2));
  net::Packet stray = ack_packet(0, 1);
  stray.ip.src = net::make_ip(0, 99);  // not a member
  auto ctx = run_ingress(std::move(stray));
  EXPECT_TRUE(ctx.drop);
  EXPECT_EQ(dataplane.group_stats(0).acks_gathered, 0u);
}

TEST_F(DataplaneFixture, MinCreditFoldedAcrossReplicas) {
  const GroupSpec spec = make_spec(3, /*f=*/3);
  std::ignore = dataplane.install_group(spec);
  run_ingress(write_packet(9));
  // Three ACKs with different credit counts; the third is forwarded and must
  // carry the minimum (7) seen across all replicas.
  run_ingress(ack_packet(0, psn_add(9, spec.replicas[0].psn_delta), 18));
  run_ingress(ack_packet(1, psn_add(9, spec.replicas[1].psn_delta), 7));
  auto last = run_ingress(ack_packet(2, psn_add(9, spec.replicas[2].psn_delta), 25));
  EXPECT_FALSE(last.drop);
  dataplane.egress(last);
  ASSERT_TRUE(last.packet.aeth.has_value());
  EXPECT_EQ(last.packet.aeth->credits, 7u);
}

class MinCreditPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(MinCreditPropertyTest, ForwardedCreditIsMinOfLatestPerReplica) {
  Rng rng(GetParam());
  sim::Simulator sim;
  P4ceDataplane dataplane(sim, "tofino", kSwitchIp);
  for (u32 i = 0; i < 6; ++i) {
    std::ignore = dataplane.add_route(net::make_ip(0, static_cast<u8>(10 + i)), i);
  }
  const u32 replicas = 4;
  const GroupSpec spec = make_spec(replicas, /*f=*/replicas);
  std::ignore = dataplane.install_group(spec);

  std::array<u8, 4> latest = {31, 31, 31, 31};
  for (int round = 0; round < 200; ++round) {
    const Psn psn = static_cast<Psn>(round + 1);
    sw::PacketContext w;
    w.packet = write_packet(psn);
    dataplane.ingress(w);
    sw::PacketContext last;
    for (u32 r = 0; r < replicas; ++r) {
      const u8 credits = static_cast<u8>(rng.next_below(32));
      latest[r] = credits;
      last = sw::PacketContext{};
      last.packet = ack_packet(r, psn_add(psn, spec.replicas[r].psn_delta), credits);
      dataplane.ingress(last);
    }
    EXPECT_FALSE(last.drop);
    dataplane.egress(last);
    EXPECT_EQ(last.packet.aeth->credits, *std::min_element(latest.begin(), latest.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCreditPropertyTest, ::testing::Values(11, 22, 33));

TEST_F(DataplaneFixture, EgressDropModeRoutesSurplusThroughLeaderEgress) {
  P4ceDataplane egress_drop(sim, "egress_drop", kSwitchIp, AckDropStage::kEgress);
  for (u32 i = 0; i < 6; ++i) {
    std::ignore = egress_drop.add_route(net::make_ip(0, static_cast<u8>(10 + i)), i);
  }
  const GroupSpec spec = make_spec(4);  // f = 2
  std::ignore = egress_drop.install_group(spec);
  sw::PacketContext w;
  w.packet = write_packet(10);
  egress_drop.ingress(w);

  // First ACK: surplus; in egress-drop mode it is *not* dropped at ingress
  // but forwarded toward the leader port and dropped in egress.
  sw::PacketContext surplus;
  surplus.packet = ack_packet(0, psn_add(10, spec.replicas[0].psn_delta));
  egress_drop.ingress(surplus);
  EXPECT_FALSE(surplus.drop);
  ASSERT_TRUE(surplus.unicast_port.has_value());
  EXPECT_EQ(*surplus.unicast_port, spec.leader.port);
  egress_drop.egress(surplus);
  EXPECT_TRUE(surplus.drop);

  // The f-th ACK still reaches the leader intact.
  sw::PacketContext fth;
  fth.packet = ack_packet(1, psn_add(10, spec.replicas[1].psn_delta));
  egress_drop.ingress(fth);
  EXPECT_FALSE(fth.drop);
  egress_drop.egress(fth);
  EXPECT_FALSE(fth.drop);
  EXPECT_EQ(fth.packet.ip.dst, kLeaderIp);
}

TEST_F(DataplaneFixture, UpdateGroupReplicasChangesMembership) {
  GroupSpec spec = make_spec(4);
  std::ignore = dataplane.install_group(spec);
  // Exclude replica 3.
  std::vector<ConnectionEntry> remaining(spec.replicas.begin(), spec.replicas.end() - 1);
  EXPECT_TRUE(dataplane.update_group_replicas(0, remaining, spec.f_needed).is_ok());
  // ACKs from the excluded replica are no longer members.
  run_ingress(write_packet(20));
  auto ctx = run_ingress(ack_packet(3, psn_add(20, spec.replicas[3].psn_delta)));
  EXPECT_TRUE(ctx.drop);
  EXPECT_EQ(dataplane.group_stats(0).acks_gathered, 0u);
  // Members still aggregate.
  auto ok = run_ingress(ack_packet(0, psn_add(20, spec.replicas[0].psn_delta)));
  (void)ok;
  EXPECT_EQ(dataplane.group_stats(0).acks_gathered, 1u);
}

TEST_F(DataplaneFixture, MultipleGroupsCoexist) {
  // "P4CE supports multiple consensus groups in parallel" (§IV-A).
  GroupSpec g0 = make_spec(2);
  GroupSpec g1 = make_spec(2);
  g1.group_idx = 1;
  g1.mcast_group_id = 101;
  g1.bcast_qpn = 0x8001;
  g1.aggr_qpn = 0xc001;
  for (auto& conn : g1.replicas) conn.ip = net::make_ip(0, static_cast<u8>(conn.ip & 0xff) + 2);
  std::ignore = dataplane.install_group(g0);
  std::ignore = dataplane.install_group(g1);

  auto c0 = run_ingress(write_packet(1));
  net::Packet p1 = write_packet(1);
  p1.bth.dest_qp = 0x8001;
  auto c1 = run_ingress(std::move(p1));
  EXPECT_EQ(*c0.mcast_group, 100u);
  EXPECT_EQ(*c1.mcast_group, 101u);
  EXPECT_EQ(dataplane.group_stats(0).requests_scattered, 1u);
  EXPECT_EQ(dataplane.group_stats(1).requests_scattered, 1u);
}

TEST_F(DataplaneFixture, RemovedGroupStopsScattering) {
  std::ignore = dataplane.install_group(make_spec(2));
  std::ignore = dataplane.remove_group(0);
  auto ctx = run_ingress(write_packet(1));
  EXPECT_TRUE(ctx.drop);
}

}  // namespace
}  // namespace p4ce::p4
