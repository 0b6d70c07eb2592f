// Programmable-switch substrate tests: match-action tables, Tofino-style
// registers (including the §IV-D subtract-underflow minimum), the multicast
// replication engine, parser rate model, and the switch device's pipeline
// scheduling / punt / power-off behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "net/packet.hpp"
#include "p4ce/dataplane.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"
#include "switchsim/multicast.hpp"
#include "switchsim/register.hpp"
#include "switchsim/switch.hpp"
#include "switchsim/table.hpp"

namespace p4ce::sw {
namespace {

TEST(ExactMatchTable, AddLookupRemove) {
  ExactMatchTable<u32, int> table("t");
  EXPECT_TRUE(table.add(5, 50).is_ok());
  EXPECT_EQ(table.add(5, 51).code(), StatusCode::kAlreadyExists);
  ASSERT_NE(table.lookup(5), nullptr);
  EXPECT_EQ(*table.lookup(5), 50);
  EXPECT_EQ(table.lookup(6), nullptr);
  EXPECT_TRUE(table.remove(5).is_ok());
  EXPECT_EQ(table.remove(5).code(), StatusCode::kNotFound);
}

TEST(ExactMatchTable, CapacityEnforcedLikeHardware) {
  ExactMatchTable<u32, int> table("small", 2);
  EXPECT_TRUE(table.add(1, 1).is_ok());
  EXPECT_TRUE(table.add(2, 2).is_ok());
  EXPECT_EQ(table.add(3, 3).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ExactMatchTable, SetOverwrites) {
  ExactMatchTable<u32, int> table("t");
  table.set(1, 10);
  table.set(1, 20);
  EXPECT_EQ(*table.lookup(1), 20);
}

TEST(TofinoMin, MatchesStdMinOnEdgeCases) {
  EXPECT_EQ(tofino_min(0, 0), 0u);
  EXPECT_EQ(tofino_min(0, 31), 0u);
  EXPECT_EQ(tofino_min(31, 0), 0u);
  EXPECT_EQ(tofino_min(5, 5), 5u);
  EXPECT_EQ(tofino_min(0xffffffffu, 1), 1u);
  EXPECT_EQ(tofino_min(1, 0xffffffffu), 1u);
}

class TofinoMinPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(TofinoMinPropertyTest, EqualsStdMinOnRandomInputs) {
  // The underflow-through-identity-hash trick (§IV-D) must be exactly min.
  Rng rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    const u32 a = rng.next_u32();
    const u32 b = rng.next_u32();
    EXPECT_EQ(tofino_min(a, b), std::min(a, b)) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TofinoMinPropertyTest, ::testing::Values(1, 2, 3, 777));

TEST(TofinoRegister, DataplaneActions) {
  TofinoRegister<u32> reg(8, 100);
  EXPECT_EQ(reg.read(3), 100u);
  reg.write(3, 0);
  EXPECT_EQ(reg.increment_read(3), 1u);
  EXPECT_EQ(reg.increment_read(3), 2u);
  EXPECT_EQ(reg.cp_read(3), 2u);
}

TEST(TofinoRegister, MinFoldPipeline) {
  // Model the per-replica credit registers: fold across stages.
  TofinoRegister<u32> credits(4, 31);
  credits.cp_write(0, 20);
  credits.cp_write(1, 7);
  credits.cp_write(2, 25);
  u32 running = 31;
  running = credits.store_and_fold_min(3, 12, running);  // ACK sender stores 12
  for (u32 i = 0; i < 3; ++i) running = credits.fold_min(i, running);
  EXPECT_EQ(running, 7u);
  EXPECT_EQ(credits.cp_read(3), 12u);
}

TEST(TofinoRegister, ControlPlaneClear) {
  TofinoRegister<u32> reg(16);
  reg.write(5, 99);
  reg.cp_clear(3);
  for (std::size_t i = 0; i < reg.size(); ++i) EXPECT_EQ(reg.cp_read(i), 3u);
}

TEST(MulticastEngine, GroupLifecycle) {
  MulticastEngine engine;
  EXPECT_TRUE(engine.create_group(7, {{1, 0}, {2, 1}}).is_ok());
  EXPECT_EQ(engine.create_group(7, {}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.lookup(7).size(), 2u);
  EXPECT_EQ(engine.lookup(7)[1], (McastCopy{2, 1}));
  EXPECT_TRUE(engine.update_group(7, {{3, 0}}).is_ok());
  EXPECT_EQ(engine.lookup(7).size(), 1u);
  EXPECT_TRUE(engine.delete_group(7).is_ok());
  EXPECT_TRUE(engine.lookup(7).empty());
  EXPECT_EQ(engine.delete_group(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.update_group(9, {}).code(), StatusCode::kNotFound);
}

TEST(ParserModel, EnforcesPacketRate) {
  ParserModel parser(121e6);  // 8.26 ns per packet
  SimTime t = 0;
  for (int i = 0; i < 1000; ++i) t = parser.admit(0);
  // 1000 packets at 121 Mpps ~= 8.26 us.
  EXPECT_NEAR(static_cast<double>(t), 1000.0 * 1e9 / 121e6, 50.0);
  EXPECT_EQ(parser.processed(), 1000u);
}

TEST(ParserModel, NoBacklogWhenSlow) {
  ParserModel parser(121e6);
  parser.admit(0);
  parser.admit(1000);  // long after the first finished
  // At most the one in-service packet (~8.26 ns) remains; no queue forms.
  EXPECT_LE(parser.backlog(1000), 9);
}

// ---------------------------------------------------------------------------
// SwitchDevice with a trivial L3 program
// ---------------------------------------------------------------------------

class L3Program : public PipelineProgram {
 public:
  ExactMatchTable<Ipv4Addr, u32> routes{"l3"};
  const sim::Simulator* clock = nullptr;
  std::vector<SimTime> ingress_times;
  u32 egress_runs = 0;
  void ingress(PacketContext& ctx) override {
    ingress_times.push_back(clock->now());
    const u32* port = routes.lookup(ctx.packet.ip.dst);
    if (port != nullptr) {
      ctx.unicast_port = *port;
    } else {
      ctx.drop = true;
    }
  }
  void egress(PacketContext&) override { ++egress_runs; }
};

struct Recorder : net::PacketSink {
  std::vector<net::Packet> received;
  void deliver(net::Packet&& p) override { received.push_back(std::move(p)); }
};

struct SwitchFixture : ::testing::Test {
  sim::Simulator sim;
  SwitchDevice device{sim, "sw", net::make_ip(1, 1)};
  L3Program program;
  Recorder hosts[3];
  std::vector<std::unique_ptr<net::Link>> links;

  void SetUp() override {
    program.clock = &sim;
    device.load_program(&program);
    for (u32 i = 0; i < 3; ++i) {
      const u32 port = device.add_port();
      auto link = std::make_unique<net::Link>(sim, 100.0, 100);
      link->attach(&hosts[i], &device.port(port));
      device.port(port).attach_link(link.get(), 1);
      program.routes.set(net::make_ip(0, static_cast<u8>(10 + i)), port);
      links.push_back(std::move(link));
    }
  }

  net::Packet to(u8 host, std::size_t payload = 64) {
    net::Packet p;
    p.ip.src = net::make_ip(0, 10);
    p.ip.dst = net::make_ip(0, host);
    p.payload = Bytes(payload, 0);
    return p;
  }
};

/// FNV-1a over a sequence of 64-bit words.
u64 fnv1a(const std::vector<u64>& words) {
  u64 h = 0xcbf29ce484222325ull;
  for (const u64 word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST_F(SwitchFixture, ForwardsByDestinationIp) {
  links[0]->send(0, to(11));
  sim.run();
  EXPECT_EQ(hosts[1].received.size(), 1u);
  EXPECT_TRUE(hosts[0].received.empty());
  EXPECT_TRUE(hosts[2].received.empty());
  EXPECT_EQ(program.egress_runs, 1u);
}

TEST_F(SwitchFixture, DropsUnroutable) {
  links[0]->send(0, to(99));
  sim.run();
  EXPECT_EQ(device.ingress_drops(), 1u);
  EXPECT_TRUE(hosts[1].received.empty());
}

TEST_F(SwitchFixture, MulticastReplicatesWithReplicationIds) {
  std::ignore = device.multicast().create_group(5, {{1, 10}, {2, 11}});
  // Swap in a program that multicasts everything and stamps the rid.
  class McastProgram : public PipelineProgram {
   public:
    void ingress(PacketContext& ctx) override { ctx.mcast_group = 5; }
    void egress(PacketContext& ctx) override {
      ctx.packet.bth.dest_qp = ctx.replication_id;  // observable stamp
    }
  } mcast_program;
  device.load_program(&mcast_program);
  links[0]->send(0, to(11));
  sim.run();
  ASSERT_EQ(hosts[1].received.size(), 1u);
  ASSERT_EQ(hosts[2].received.size(), 1u);
  EXPECT_EQ(hosts[1].received[0].bth.dest_qp, 10u);
  EXPECT_EQ(hosts[2].received[0].bth.dest_qp, 11u);
}

TEST_F(SwitchFixture, PuntReachesCpuHandler) {
  class PuntProgram : public PipelineProgram {
   public:
    void ingress(PacketContext& ctx) override { ctx.punt_to_cpu = true; }
    void egress(PacketContext&) override {}
  } punt_program;
  device.load_program(&punt_program);
  int punted = 0;
  u32 punt_port = 999;
  device.set_cpu_handler([&](net::Packet, u32 port) {
    ++punted;
    punt_port = port;
  });
  links[1]->send(0, to(10));
  sim.run();
  EXPECT_EQ(punted, 1);
  EXPECT_EQ(punt_port, 1u);
  EXPECT_EQ(device.punted(), 1u);
}

TEST_F(SwitchFixture, CpuInjectionTraversesPipeline) {
  net::Packet p = to(12);
  device.inject_from_cpu(std::move(p));
  sim.run();
  EXPECT_EQ(hosts[2].received.size(), 1u);
}

TEST_F(SwitchFixture, PowerOffBlackholesEverything) {
  device.power_off();
  links[0]->send(0, to(11));
  device.inject_from_cpu(to(11));
  sim.run();
  EXPECT_TRUE(hosts[1].received.empty());
  EXPECT_FALSE(device.powered());
  device.power_on();
  links[0]->send(0, to(11));
  sim.run();
  EXPECT_EQ(hosts[1].received.size(), 1u);
}

TEST_F(SwitchFixture, PipelineAddsFixedLatency) {
  links[0]->send(0, to(11));
  sim.run();
  // propagation(100)*2 + serialization + parsers + ingress/egress latency.
  EXPECT_GE(sim.now(), 200 + kIngressLatency + kEgressLatency);
}


// The link hands a packet to a port's ingress parser when it lands, and the
// ingress stage runs kIngressLatency after the parse. These pin when that
// happens and what stops it.

TEST_F(SwitchFixture, IngressRunsAfterArrivalParseAndLatency) {
  const net::Packet p = to(11);
  const Duration ser = serialization_delay(p.wire_size(), 100.0);
  links[0]->send(0, to(11));
  sim.run();
  ASSERT_EQ(program.ingress_times.size(), 1u);
  // Arrival at ser + 100 ns; an idle parser takes 8.26 ns, rounded up.
  EXPECT_EQ(program.ingress_times[0], ser + 100 + 9 + kIngressLatency);
  EXPECT_EQ(device.port(0).rx_packets(), 1u);
  EXPECT_EQ(device.port(0).ingress_parser().processed(), 1u);
}

TEST_F(SwitchFixture, BurstQueuesInTheIngressParser) {
  // 64 B frames arrive every 6.72 ns at 100 Gbit/s, faster than the parser's
  // 8.26 ns per packet, so the parser falls behind and sets the pace.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) links[0]->send(0, to(11, 2));
  ASSERT_EQ(to(11, 2).frame_size(), 64u);
  sim.run();
  ASSERT_EQ(program.ingress_times.size(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(program.ingress_times.front(), 316);
  EXPECT_EQ(program.ingress_times.back(), 836);
  std::vector<u64> words(program.ingress_times.begin(), program.ingress_times.end());
  EXPECT_EQ(fnv1a(words), 13088404533401130153ull);
  EXPECT_EQ(hosts[1].received.size(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(device.port(0).rx_packets(), static_cast<u64>(kBurst));
}

TEST_F(SwitchFixture, PowerOffBeforeArrivalNeverRunsIngress) {
  links[0]->send(0, to(11));  // lands at ~112 ns
  sim.schedule_at(50, [&] { device.power_off(); });
  sim.run();
  EXPECT_TRUE(program.ingress_times.empty());
  EXPECT_EQ(program.egress_runs, 0u);
  EXPECT_TRUE(hosts[1].received.empty());
  EXPECT_EQ(device.port(0).rx_packets(), 1u);  // the port still saw it land
}

TEST_F(SwitchFixture, PowerOffBetweenArrivalAndIngressDropsPacket) {
  links[0]->send(0, to(11));  // lands at ~112 ns, ingress at ~321 ns
  sim.schedule_at(200, [&] { device.power_off(); });
  sim.run();
  EXPECT_TRUE(program.ingress_times.empty());
  EXPECT_TRUE(hosts[1].received.empty());
}

TEST_F(SwitchFixture, LinkCutBeforeArrivalDropsPacket) {
  links[0]->send(0, to(11));
  sim.schedule_at(50, [&] { links[0]->cut(); });
  sim.run();
  EXPECT_TRUE(program.ingress_times.empty());
  EXPECT_TRUE(hosts[1].received.empty());
}

TEST_F(SwitchFixture, LinkCutAfterArrivalKeepsPacket) {
  // Once the last bit has landed, cutting the wire it came over cannot
  // take the packet back.
  links[0]->send(0, to(11));
  sim.schedule_at(200, [&] { links[0]->cut(); });
  sim.run();
  EXPECT_EQ(program.ingress_times.size(), 1u);
  EXPECT_EQ(hosts[1].received.size(), 1u);
}

// The egress stage runs inside the ingress event and posts the copy for its
// egress time; a power-off before that time still keeps the copy off the
// wire, and a power cycle that ends before it does not.

TEST_F(SwitchFixture, PowerOffBetweenIngressAndEgressTimeDropsTheCopy) {
  links[0]->send(0, to(11));  // ingress at ~321 ns, egress time ~530 ns
  sim.schedule_at(400, [&] { device.power_off(); });
  sim.run();
  EXPECT_EQ(program.ingress_times.size(), 1u);
  EXPECT_TRUE(hosts[1].received.empty());
}

TEST_F(SwitchFixture, PowerCycleBeforeTheEgressTimeLetsTheCopyOut) {
  links[0]->send(0, to(11));
  sim.schedule_at(400, [&] { device.power_off(); });
  sim.schedule_at(450, [&] { device.power_on(); });
  sim.run();
  EXPECT_EQ(hosts[1].received.size(), 1u);
}

// ---------------------------------------------------------------------------
// The whole packet path: NIC -> P4CE switch -> 4 NICs and back
// ---------------------------------------------------------------------------

/// Sits between a link and a NIC and logs every packet it passes on.
struct Tap : net::PacketSink {
  sim::Simulator* sim = nullptr;
  rdma::Nic* nic = nullptr;
  u64 node = 0;
  std::vector<u64>* log = nullptr;
  void deliver(net::Packet&& p) override {
    log->insert(log->end(), {static_cast<u64>(sim->now()), node, u64{p.bth.psn},
                             static_cast<u64>(p.bth.opcode)});
    nic->deliver(std::move(p));
  }
};

TEST(P4cePacketPath, ScatterGatherTimelineGolden) {
  // One leader NIC writes through a P4CE switch to four replica NICs, which
  // ACK through the gather stage. The timeline of every packet delivered
  // to a NIC and every leader completion, as (time, node, psn) words, is
  // pinned by hash: a packet hop that moves in time or order shows here.
  constexpr u32 kNodes = 5;
  constexpr Ipv4Addr kSwitchIp = net::make_ip(1, 1);
  sim::Simulator sim;
  SwitchDevice device(sim, "tofino", kSwitchIp);
  p4::P4ceDataplane dataplane(sim, device.name(), kSwitchIp);
  device.load_program(&dataplane);

  std::vector<u64> timeline;
  std::vector<std::unique_ptr<rdma::MemoryManager>> memory;
  std::vector<std::unique_ptr<rdma::Nic>> nics;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<Tap> taps(kNodes);
  std::vector<rdma::CompletionQueue> cqs(kNodes);
  std::vector<rdma::QueuePair*> qps;
  for (u32 i = 0; i < kNodes; ++i) {
    const Ipv4Addr ip = net::make_ip(0, static_cast<u8>(10 + i));
    memory.push_back(std::make_unique<rdma::MemoryManager>(i + 1));
    nics.push_back(std::make_unique<rdma::Nic>(sim, "n" + std::to_string(i), ip, 0xE0 + i,
                                               *memory.back()));
    const u32 port = device.add_port();
    links.push_back(std::make_unique<net::Link>(sim, 100.0, 100));
    taps[i].sim = &sim;
    taps[i].nic = nics.back().get();
    taps[i].node = i;
    taps[i].log = &timeline;
    links.back()->attach(&taps[i], &device.port(port));
    nics.back()->attach_link(links.back().get(), 0);
    device.port(port).attach_link(links.back().get(), 1);
    ASSERT_TRUE(dataplane.add_route(ip, port).is_ok());
    qps.push_back(&nics.back()->create_qp(cqs[i]));
  }

  p4::GroupSpec spec;
  spec.group_idx = 0;
  spec.mcast_group_id = 100;
  spec.bcast_qpn = 0x8000;
  spec.aggr_qpn = 0xc000;
  spec.f_needed = 2;
  spec.virtual_rkey = 0x1234;
  spec.leader = p4::LeaderEndpoint{net::make_ip(0, 10), 0xE0, qps[0]->qpn(), 0};
  std::vector<McastCopy> copies;
  for (u32 r = 1; r < kNodes; ++r) {
    auto& region = memory[r]->register_region(1 << 16, rdma::kAccessRemoteWrite);
    p4::ConnectionEntry conn;
    conn.ip = nics[r]->ip();
    conn.mac = nics[r]->mac();
    conn.qpn = qps[r]->qpn();
    conn.port = r;
    conn.vaddr = region.vaddr();
    conn.buffer_len = region.length();
    conn.rkey = region.rkey();
    spec.replicas.push_back(conn);
    copies.push_back({r, static_cast<u16>(r - 1)});
    qps[r]->connect(kSwitchIp, spec.aggr_qpn, 0, 0);
  }
  ASSERT_TRUE(device.multicast().create_group(spec.mcast_group_id, std::move(copies)).is_ok());
  ASSERT_TRUE(dataplane.install_group(spec).is_ok());
  qps[0]->connect(kSwitchIp, spec.bcast_qpn, 0, 0);

  // 200 writes, mostly one packet, every fifth spanning three MTUs.
  constexpr u64 kWrites = 200;
  u64 posted = 0;
  u64 completed = 0;
  const auto post_next = [&] {
    const u32 len = posted % 5 == 4 ? 2500 : 64;
    ASSERT_TRUE(qps[0]->post_write(posted, Bytes(len, static_cast<u8>(posted)),
                                   (posted * 64) % 32768, spec.virtual_rkey)
                    .is_ok());
    ++posted;
  };
  cqs[0].set_callback([&](const rdma::Completion& c) {
    EXPECT_EQ(c.status, rdma::WcStatus::kSuccess);
    timeline.insert(timeline.end(), {static_cast<u64>(sim.now()), 0, c.wr_id, 0xff});
    ++completed;
    if (posted < kWrites) post_next();
  });
  for (int i = 0; i < 8; ++i) post_next();
  sim.run();

  EXPECT_EQ(completed, kWrites);
  EXPECT_EQ(dataplane.group_stats(0).acks_forwarded, kWrites);
  EXPECT_EQ(timeline.size(), 4u * 1520);  // 200 completions, 200 + 4 x 280 packets
  // The drain ends at the retransmit wake armed by the first post (one
  // timeout after time 0), which finds the timer disarmed. Before timers
  // re-armed lazily it ended at 169508, the deadline of the last cancelled
  // timer, whose dead queue entry run() still popped.
  EXPECT_EQ(sim.now(), 131072);
  EXPECT_EQ(fnv1a(timeline), 5357195838321224365ull);
}

}  // namespace
}  // namespace p4ce::sw
