// Programmable-switch substrate tests: match-action tables, Tofino-style
// registers (including the §IV-D subtract-underflow minimum), the multicast
// replication engine, parser rate model, and the switch device's pipeline
// scheduling / punt / power-off behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "net/packet.hpp"
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
  EXPECT_EQ(table.hits(), 2u);  // two successful lookups above
  EXPECT_EQ(table.misses(), 1u);
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
  EXPECT_EQ(reg.dataplane_operations(), 4u);
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
  u32 egress_runs = 0;
  void ingress(PacketContext& ctx) override {
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
  void deliver(net::Packet p) override { received.push_back(std::move(p)); }
};

struct SwitchFixture : ::testing::Test {
  sim::Simulator sim;
  SwitchDevice device{sim, "sw", net::make_ip(1, 1)};
  L3Program program;
  Recorder hosts[3];
  std::vector<std::unique_ptr<net::Link>> links;

  void SetUp() override {
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

  net::Packet to(u8 host) {
    net::Packet p;
    p.ip.src = net::make_ip(0, 10);
    p.ip.dst = net::make_ip(0, host);
    p.payload = Bytes(64, 0);
    return p;
  }
};

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

}  // namespace
}  // namespace p4ce::sw
