// NIC model tests: message-rate limits, receive-buffer occupancy and
// credits, tail-drop under overload, multi-path attachment and fail-over,
// power-off semantics, and QP lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/context.hpp"
#include "rdma/cm.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {
namespace {

struct NicFixture : ::testing::Test {
  sim::Simulator sim;
  MemoryManager mem_a{1}, mem_b{2};
  std::unique_ptr<net::Link> link;
  std::unique_ptr<Nic> nic_a, nic_b;
  CompletionQueue cq_a, cq_b;

  void SetUp() override { build({}); }

  void build(NicConfig config) {
    link = std::make_unique<net::Link>(sim, 100.0, 100);
    nic_a = std::make_unique<Nic>(sim, "a", net::make_ip(0, 1), 0xA, mem_a, config);
    nic_b = std::make_unique<Nic>(sim, "b", net::make_ip(0, 2), 0xB, mem_b, config);
    link->attach(nic_a.get(), nic_b.get());
    nic_a->attach_link(link.get(), 0);
    nic_b->attach_link(link.get(), 1);
  }

  /// The run's series `name`, read from a snapshot: the value a BENCH file
  /// would show, with no NIC getter called.
  u64 series(const std::string& name) {
    const auto snap = sim.obs().metrics.snapshot();
    const auto* s = snap.find(name);
    return s == nullptr ? 0 : s->count;
  }

  net::Packet to_b(Qpn dqpn = 0x999) {
    net::Packet p;
    p.ip.src = nic_a->ip();
    p.ip.dst = nic_b->ip();
    p.bth.opcode = Opcode::kWriteOnly;
    p.bth.dest_qp = dqpn;
    p.payload = Bytes(32, 0);
    return p;
  }
};

TEST_F(NicFixture, TransmitRateBoundedByPerPacketCost) {
  NicConfig slow;
  slow.tx_per_packet = 1'000;  // 1 M pps cap
  build(slow);
  for (int i = 0; i < 100; ++i) nic_a->send_packet(to_b());
  sim.run();
  // 100 packets cannot leave faster than 100 us.
  EXPECT_GE(sim.now(), 100 * 1'000);
  EXPECT_EQ(nic_a->packets_sent(), 100u);
}

TEST_F(NicFixture, UnknownQpnCountsAsDrop) {
  nic_a->send_packet(to_b(0x777));
  sim.run();
  EXPECT_EQ(series("rdma.nic.dropped{nic=b}"), 1u);
  EXPECT_EQ(series("rdma.nic.dropped"), 1u);
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(nic_b->packets_dropped(), 1u);
}

TEST_F(NicFixture, CreditsReflectReceiveBacklog) {
  EXPECT_EQ(nic_b->current_credits(), 31u);
  // Pile packets into b's rx pipeline faster than it processes.
  for (int i = 0; i < 20; ++i) nic_b->deliver(to_b());
  EXPECT_LT(nic_b->current_credits(), 31u);
  sim.run();
  EXPECT_EQ(nic_b->current_credits(), 31u);  // drained
}

TEST_F(NicFixture, ReceiveBufferTailDropsWhenFull) {
  NicConfig tiny;
  tiny.rx_buffer_capacity = 4;
  tiny.rx_per_packet = 10'000;  // very slow processing
  build(tiny);
  for (int i = 0; i < 10; ++i) nic_b->deliver(to_b());
  sim.run();
  // The first rx event lands the burst, so the series is current once the
  // burst has drained, before any getter brings it up to date.
  EXPECT_EQ(series("rdma.nic.rx_overflows{nic=b}"), 6u);
  EXPECT_EQ(nic_b->rx_overflows(), 6u);
  // A second burst, read as it lands.
  for (int i = 0; i < 10; ++i) nic_b->deliver(to_b());
  EXPECT_EQ(nic_b->rx_overflows(), 12u);
  EXPECT_EQ(nic_b->current_credits(), 0u);
}

TEST_F(NicFixture, PowerOffStopsEverything) {
  nic_b->power_off();
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 0u);  // rx path is dead
  nic_a->power_off();
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_a->packets_sent(), 1u);  // tx path is dead after power-off
}

TEST_F(NicFixture, ActivePathSelectsLink) {
  // Second link to a second island.
  MemoryManager mem_c(3);
  Nic nic_c(sim, "c", net::make_ip(0, 3), 0xC, mem_c);
  net::Link backup(sim, 100.0, 100);
  backup.attach(nic_a.get(), &nic_c);
  const u32 path = nic_a->attach_link(&backup, 0);
  EXPECT_EQ(path, 1u);

  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(nic_c.packets_received(), 0u);

  nic_a->set_active_path(1);
  nic_a->send_packet(to_b());  // same dst ip, but rides the backup wire
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(nic_c.packets_received(), 1u);
}

TEST_F(NicFixture, QpLifecycle) {
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  const Qpn qpn = qp.qpn();
  EXPECT_EQ(nic_a->find_qp(qpn), &qp);
  nic_a->destroy_qp(qpn);
  EXPECT_EQ(nic_a->find_qp(qpn), nullptr);
  // Distinct QPNs for each creation.
  QueuePair& qp2 = nic_a->create_qp(cq_a, {});
  EXPECT_NE(qp2.qpn(), qpn);
}

TEST_F(NicFixture, CmPacketsRouteToAgent) {
  bool handled = false;
  nic_b->cm().listen(9, [&](const CmMessage&, Ipv4Addr) {
    handled = true;
    return CmAgent::AcceptDecision{};  // reject; routing is what's tested
  });
  net::Packet p = to_b(kCmQpn);
  CmMessage msg;
  msg.type = CmType::kConnectRequest;
  msg.service_id = 9;
  p.cm = msg;
  p.bth.opcode = Opcode::kSendOnly;
  nic_a->send_packet(std::move(p));
  sim.run();
  EXPECT_TRUE(handled);
}

TEST_F(NicFixture, RxProcessingAddsLatencyNotLoss) {
  NicConfig config;
  config.rx_per_packet = 500;
  build(config);
  CompletionQueue cq;
  QueuePair& qp_b = nic_b->create_qp(cq, {});
  qp_b.connect(nic_a->ip(), 0x123, 0, 0);
  auto& region = mem_b.register_region(4096, kAccessRemoteWrite);
  for (int i = 0; i < 31; ++i) {
    net::Packet p = to_b(qp_b.qpn());
    p.bth.psn = static_cast<Psn>(i);
    p.bth.ack_request = true;
    p.reth = Reth{region.vaddr(), region.rkey(), 32};
    nic_a->send_packet(std::move(p));
  }
  sim.run();
  EXPECT_EQ(sim.obs().metrics.counter("rdma.qp.msgs_received").value(), 31u);
  EXPECT_EQ(nic_b->rx_overflows(), 0u);
}


// send_packet gives each packet a transmit slot T1 = the end of its
// tx_per_packet turn (40 ns apart here); the packet reaches the wire at T1.

TEST_F(NicFixture, PacketLandsOneWireTimeAfterItsTransmitSlot) {
  const Duration wire = serialization_delay(to_b().wire_size(), 100.0) + 100;
  for (int i = 0; i < 3; ++i) nic_a->send_packet(to_b());
  for (int i = 1; i <= 3; ++i) {
    const SimTime landed = 40 * i + wire;
    sim.run_until(landed - 1);
    EXPECT_EQ(nic_b->packets_received(), static_cast<u64>(i - 1));
    sim.run_until(landed);
    EXPECT_EQ(nic_b->packets_received(), static_cast<u64>(i));
  }
}

TEST_F(NicFixture, PowerOffKeepsUnsentPacketsOffTheWire) {
  // Slots at 40, 80 and 120 ns. A crash at 80 ns, scheduled before the
  // posts, lets the first packet out and neither of the others: a packet
  // whose slot is at or after the power-off never reaches the wire.
  sim.schedule_at(80, [&] { nic_a->power_off(); });
  for (int i = 0; i < 3; ++i) nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(link->packets_sent(0), 1u);
  EXPECT_EQ(link->wire_bytes_sent(0), to_b().wire_size());
}

TEST_F(NicFixture, PowerOffJustBeforeTheSlotDropsThePacket) {
  sim.schedule_at(39, [&] { nic_a->power_off(); });
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 0u);
  EXPECT_EQ(link->packets_sent(0), 0u);
}

TEST_F(NicFixture, PowerOffJustAfterTheSlotLetsThePacketLand) {
  sim.schedule_at(41, [&] { nic_a->power_off(); });
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(link->packets_sent(0), 1u);
}

TEST_F(NicFixture, LinkCutBeforeTheSlotDropsThePacket) {
  sim.schedule_at(20, [&] { link->cut(); });
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 0u);
  EXPECT_EQ(link->packets_sent(0), 0u);  // it never reached the wire
  link->restore();
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 1u);
  EXPECT_EQ(link->packets_sent(0), 1u);
}

TEST_F(NicFixture, LinkCutOnTheWireDropsThePacket) {
  sim.schedule_at(60, [&] { link->cut(); });  // after the slot, before landing
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 0u);
  EXPECT_EQ(link->packets_sent(0), 1u);  // it was on the wire
}

// The NIC takes each packet from the link when it is sent and schedules only
// its rx; a packet counts as received, and holds a buffer slot, from the
// moment it lands, exactly as when the landing was an event of its own.

TEST_F(NicFixture, PacketsInFlightHoldNoCreditsUntilTheyLand) {
  NicConfig slow;
  slow.rx_per_packet = 1'000;
  build(slow);
  const Duration wire = serialization_delay(to_b().wire_size(), 100.0) + 100;
  for (int i = 0; i < 3; ++i) nic_a->send_packet(to_b());
  // Slots at 40, 80 and 120 ns: all three are on the wire, none landed.
  sim.run_until(40 + wire - 1);
  EXPECT_EQ(nic_b->current_credits(), 31u);
  EXPECT_EQ(nic_b->packets_received(), 0u);
  sim.run_until(40 + wire);
  EXPECT_EQ(nic_b->current_credits(), 30u);
  EXPECT_EQ(nic_b->packets_received(), 1u);
  sim.run_until(120 + wire);
  EXPECT_EQ(nic_b->current_credits(), 28u);
  EXPECT_EQ(nic_b->packets_received(), 3u);
  // The first finishes rx 1 us after it landed and frees its slot.
  sim.run_until(40 + wire + 1'000);
  EXPECT_EQ(nic_b->current_credits(), 29u);
  sim.run();
  EXPECT_EQ(series("rdma.nic.dropped{nic=b}"), 3u);
  EXPECT_EQ(nic_b->current_credits(), 31u);
  EXPECT_EQ(nic_b->packets_dropped(), 3u);  // no such QP, counted at rx end
}

TEST_F(NicFixture, CreditsReadInsideAnEventSeeOnlyWhatLandedBeforeIt) {
  const Duration wire = serialization_delay(to_b().wire_size(), 100.0) + 100;
  // Scheduled before the send: runs first among the events at the landing.
  std::vector<u32> credits;
  sim.schedule_at(40 + wire, [&] { credits.push_back(nic_b->current_credits()); });
  nic_a->send_packet(to_b());  // lands at 40 + wire
  // Scheduled by an event after the send's slot: runs after the landing.
  sim.schedule_at(50, [&] {
    sim.schedule_at(40 + wire, [&] { credits.push_back(nic_b->current_credits()); });
  });
  sim.run();
  EXPECT_EQ(credits, (std::vector<u32>{31u, 30u}));
}

// Packet Y finishes rx in the nanosecond packet X lands. If X was sent
// before Y landed, X's landing comes first and Y still fills the one-slot
// buffer; if X was sent after Y landed, Y's rx comes first.

TEST_F(NicFixture, LandingInTheNanosecondAnRxEndsSentBeforeThatRxWasDue) {
  NicConfig one_slot;
  one_slot.rx_buffer_capacity = 1;
  one_slot.rx_per_packet = 40;  // Y's rx ends as X (one 40 ns tx turn later) lands
  build(one_slot);
  nic_a->send_packet(to_b());  // Y: slot 40
  nic_a->send_packet(to_b());  // X: slot 80, sent before Y lands
  sim.run();
  EXPECT_EQ(series("rdma.nic.rx_overflows{nic=b}"), 1u);
  EXPECT_EQ(nic_b->packets_received(), 2u);
  EXPECT_EQ(nic_b->rx_overflows(), 1u);
}

TEST_F(NicFixture, LandingInTheNanosecondAnRxEndsSentAfterThatRxWasDue) {
  NicConfig one_slot;
  one_slot.rx_buffer_capacity = 1;
  one_slot.rx_per_packet = 200;
  build(one_slot);
  nic_a->send_packet(to_b());  // Y: slot 40, lands at 40 + wire < 200
  // X: sent at 200 for slot 240, lands at 240 + wire, Y's rx end.
  sim.schedule_at(200, [&] { nic_a->send_packet(to_b()); });
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 2u);
  EXPECT_EQ(nic_b->rx_overflows(), 0u);
}

TEST_F(NicFixture, RxStallCoversPacketsLandingFromItsStartUpToItsEnd) {
  const Duration wire = serialization_delay(to_b().wire_size(), 100.0) + 100;
  const SimTime lands = 40 + wire;
  // The stall starts the nanosecond the packet lands: its rx takes 500 ns.
  nic_b->stall_rx(lands, lands + 1'000, 500);
  nic_a->send_packet(to_b());
  sim.run_until(lands + 499);
  EXPECT_EQ(nic_b->packets_dropped(), 0u);
  sim.run_until(lands + 500);
  EXPECT_EQ(nic_b->packets_dropped(), 1u);
}

TEST_F(NicFixture, RxStallEndsTheNanosecondBeforeItsEnd) {
  const Duration wire = serialization_delay(to_b().wire_size(), 100.0) + 100;
  const SimTime lands = 40 + wire;
  // The stall ends the nanosecond the packet lands: its rx takes the usual
  // 45 ns.
  nic_b->stall_rx(0, lands, 500);
  nic_a->send_packet(to_b());
  sim.run_until(lands + 44);
  EXPECT_EQ(nic_b->packets_dropped(), 0u);
  sim.run_until(lands + 45);
  EXPECT_EQ(nic_b->packets_dropped(), 1u);
}

TEST_F(NicFixture, PacketsInFlightOnBothPathsAreAllProcessed) {
  // A backup path with a shorter wire: the second packet lands before the
  // first. The NIC serves rx in the order it took the packets (DESIGN
  // §5.1 lists this window), and every packet is still received once.
  net::Link backup(sim, 100.0, 10);
  backup.attach(nic_a.get(), nic_b.get());
  nic_a->attach_link(&backup, 0);
  nic_b->attach_link(&backup, 1);
  nic_a->send_packet(to_b());
  nic_a->set_active_path(1);
  nic_a->send_packet(to_b());
  sim.run();
  EXPECT_EQ(nic_b->packets_received(), 2u);
  EXPECT_EQ(nic_b->packets_dropped(), 2u);  // no such QP, counted at rx end
  EXPECT_EQ(nic_b->current_credits(), 31u);
}

}  // namespace
}  // namespace p4ce::rdma
