// Simulated RDMA NIC (RoCE v2). Owns queue pairs and the CM agent,
// models per-packet tx/rx processing rates (message-rate limits) and the
// receive-buffer occupancy that backs the credit count advertised in ACKs
// (paper Table I / §II-A "Congestion").
//
// A packet costs the NIC one event, its rx: the NIC takes each packet from
// the link when it is sent (take_in_flight), decides then whether the
// buffer will hold it when it lands, and schedules its rx processing. The
// ring of rx slots keeps each packet's landing time until it is processed,
// so the buffer occupancy, the credits and the counters read at any moment
// what a packet landing at its arrival time would have made them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "rdma/completion.hpp"
#include "rdma/memory.hpp"
#include "rdma/qp.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {

class CmAgent;

/// Interface the CM agent (and other packet-crafting components) use to
/// inject packets into the network. Implemented by Nic and by the P4CE
/// switch control plane (which crafts CM packets "by hand", as the paper's
/// Scapy-based control plane does).
class PacketIo {
 public:
  virtual ~PacketIo() = default;
  virtual void send_packet(net::Packet&& packet) = 0;
  virtual Ipv4Addr ip() const noexcept = 0;
  virtual net::MacAddr mac() const noexcept = 0;
  virtual sim::Simulator& simulator() noexcept = 0;
};

struct NicConfig {
  /// Per-packet transmit processing time; bounds the NIC message rate
  /// independently of link bandwidth (a ConnectX-5-class card).
  Duration tx_per_packet = 40;  // ns => 25 M packets/s
  /// Per-packet receive processing time (validation + DMA issue).
  Duration rx_per_packet = 45;  // ns
  /// Receive buffer slots; the credit count is capacity minus occupancy,
  /// clamped to the 5 bits the AETH syndrome can carry.
  u32 rx_buffer_capacity = 31;
};

/// The simulated RNIC.
class Nic : public net::PacketSink, public PacketIo {
 public:
  Nic(sim::Simulator& sim, std::string name, Ipv4Addr ip, net::MacAddr mac, MemoryManager& memory,
      NicConfig config = {});
  ~Nic() override;

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const std::string& name() const noexcept { return name_; }
  Ipv4Addr ip() const noexcept override { return ip_; }
  net::MacAddr mac() const noexcept override { return mac_; }
  sim::Simulator& simulator() noexcept override { return sim_; }
  MemoryManager& memory() noexcept { return memory_; }
  const NicConfig& config() const noexcept { return config_; }

  /// Attach a link; returns the path index (0 = primary, 1 = backup, ...).
  /// `end` is this NIC's endpoint index on the link.
  u32 attach_link(net::Link* link, int end);

  /// Select which attached path outbound packets use (fail-over to the
  /// backup route after a switch crash, §III-A "Faulty switch").
  void set_active_path(u32 path_index);
  u32 active_path() const noexcept { return active_path_; }

  /// Create a reliable-connection QP on this NIC.
  QueuePair& create_qp(CompletionQueue& cq, QpConfig config = {});
  QueuePair* find_qp(Qpn qpn) noexcept;
  void destroy_qp(Qpn qpn);

  CmAgent& cm() noexcept { return *cm_; }

  /// Transmit a packet built by a QP or the CM agent (tx pipeline + link).
  void send_packet(net::Packet&& packet) override;

  /// PacketSink: a packet landing now, within the running event (a test or
  /// a tap between the link and the NIC).
  void deliver(net::Packet&& packet) override;
  /// PacketSink: a packet sent toward this NIC, landing at
  /// `flight.arrival`; taken now unless the NIC is dead.
  bool take_in_flight(net::Packet&& packet, const net::InFlight& flight) override;

  /// Credits this NIC currently advertises in outgoing ACKs.
  u8 current_credits() const noexcept;

  /// Fault injection: packets landing in [from, until) cost `per_packet`
  /// of rx processing instead of config().rx_per_packet (a card stalled by
  /// a GC-pause-like hiccup). The NIC settles a packet's rx time when the
  /// packet is sent, so declare a stall before anything that lands in it is
  /// sent: at least a flight time ahead of `from`. Stalls come in `from`
  /// order and do not overlap.
  void stall_rx(SimTime from, SimTime until, Duration per_packet);

  /// Emulate host/NIC death, for good: stop all processing, drop all
  /// traffic, including packets already posted whose transmit slot has not
  /// come yet.
  void power_off() noexcept;
  bool powered() const noexcept { return powered_; }

  u64 packets_sent() const noexcept { return tx_count_; }
  /// Packets landed on the live card (tail-dropped ones included).
  u64 packets_received() const noexcept {
    land();
    return rx_count_;
  }
  /// Inbound packets no QP or CM agent took (rdma.nic.dropped{nic=<name>}).
  u64 packets_dropped() const noexcept { return m_dropped_.value(); }
  /// Inbound packets tail-dropped because the receive buffer was full —
  /// what the credit mechanism exists to prevent (§II-A "Congestion");
  /// rdma.nic.rx_overflows{nic=<name>}.
  u64 rx_overflows() const noexcept {
    land();
    return m_rx_overflows_.value();
  }

 private:
  using TieKey = sim::Simulator::TieKey;

  /// One packet from its send until its rx processing ends (or, tail-
  /// dropped, until the next rx event clears it). Slots sit in take order,
  /// which on one link is landing order.
  struct RxSlot {
    net::InFlight flight;
    TieKey lands;     ///< its landing's place among the events at flight.arrival
    u64 rx_seq = 0;   ///< the seq of its rx event
    SimTime done = 0; ///< when rx processing ends; kTimeNever: tail-dropped
    bool buffered = false;  ///< landed on the live card and holds a buffer slot
  };
  struct Stall {
    SimTime from;
    SimTime until;
    Duration per_packet;
  };

  /// Admit a packet landing as `flight` and `lands` describe: tail-drop it
  /// if the buffer will be full when it lands, else schedule its rx.
  void admit(net::Packet&& packet, const net::InFlight& flight, TieKey lands);
  /// Buffered packets whose rx is still to run when `slot` lands.
  u32 buffered_when_landing(const RxSlot& slot) const noexcept;
  /// rx processing time of a packet landing at `arrival`.
  Duration rx_cost(SimTime arrival);
  /// Count the slots that have landed by the running event as received,
  /// tail-dropped or buffered. Everything that reads those counts, the
  /// credits included, calls it first.
  void land() const noexcept;
  void pop_rx_slot() noexcept;
  void dispatch(const net::Packet& packet);

  sim::Simulator& sim_;
  std::string name_;
  Ipv4Addr ip_;
  net::MacAddr mac_;
  MemoryManager& memory_;
  NicConfig config_;

  struct Path {
    net::Link* link;
    int end;
  };
  std::vector<Path> paths_;
  u32 active_path_ = 0;

  std::unordered_map<Qpn, std::unique_ptr<QueuePair>> qps_;
  Qpn next_qpn_ = 0x100;
  std::unique_ptr<CmAgent> cm_;

  SimTime tx_busy_until_ = 0;
  SimTime rx_busy_until_ = 0;
  // land() brings these up to the running event, so they are mutable.
  mutable Ring<RxSlot> rx_slots_;
  mutable std::size_t landed_ = 0;  ///< rx_slots_[0, landed_) have landed
  mutable u32 rx_pending_ = 0;      ///< packets landed but not yet processed
  mutable u64 rx_count_ = 0;
  Ring<Stall> stalls_;
  u64 tx_count_ = 0;
  bool powered_ = true;
  // Registry counters labelled {nic=<name>}, bound at construction; the
  // getters above read them. NIC names are unique within a run. A packet is
  // tail-dropped only while buffered packets still have their rx to run,
  // and the first of those rx events lands it: the overflow series is
  // current once a burst has drained, whether or not a getter was called.
  obs::Counter& m_rx_overflows_;
  obs::Counter& m_dropped_;
};

}  // namespace p4ce::rdma
