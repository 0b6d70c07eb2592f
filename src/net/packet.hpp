// The packet object that flows through the simulated network, plus the
// point-to-point link model with bandwidth, propagation delay and FIFO
// queueing.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/headers.hpp"
#include "net/payload.hpp"
#include "rdma/headers.hpp"
#include "sim/simulator.hpp"

namespace p4ce::net {

/// A RoCE v2 packet: Ethernet + IPv4 + UDP + BTH [+ RETH] [+ AETH]
/// [+ payload] + ICRC. CM handshake messages travel as packets addressed to
/// the well-known CM queue pair with the message in `cm`.
struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;

  rdma::Bth bth;
  std::optional<rdma::Reth> reth;
  std::optional<rdma::Aeth> aeth;
  std::optional<rdma::AtomicEth> atomic_eth;        ///< atomic requests
  std::optional<rdma::AtomicAckEth> atomic_ack_eth; ///< atomic responses
  std::optional<rdma::CmMessage> cm;

  /// Shared immutable payload view: carbon copies and MTU slices reference
  /// one buffer; only headers are per-copy mutable (see payload.hpp).
  PayloadRef payload;

  bool is_cm() const noexcept { return cm.has_value(); }
  bool is_ack() const noexcept { return bth.opcode == rdma::Opcode::kAcknowledge; }
  bool is_nak() const noexcept { return is_ack() && aeth && aeth->is_nak; }
  bool is_write() const noexcept { return rdma::is_write(bth.opcode); }
  bool is_read_request() const noexcept { return rdma::is_read_request(bth.opcode); }
  bool is_read_response() const noexcept { return rdma::is_read_response(bth.opcode); }
  bool is_atomic() const noexcept { return rdma::is_atomic(bth.opcode); }
  bool is_atomic_response() const noexcept { return rdma::is_atomic_response(bth.opcode); }

  /// Size of the Ethernet frame on the wire (headers + payload + ICRC + FCS),
  /// excluding preamble and inter-frame gap.
  u32 frame_size() const noexcept {
    u32 s = EthernetHeader::kWireSize + Ipv4Header::kWireSize + UdpHeader::kWireSize +
            rdma::Bth::kWireSize;
    if (reth) s += rdma::Reth::kWireSize;
    if (aeth) s += rdma::Aeth::kWireSize;
    if (atomic_eth) s += atomic_eth->wire_size();
    if (atomic_ack_eth) s += rdma::AtomicAckEth::kWireSize;
    if (cm) s += cm->wire_size();
    s += static_cast<u32>(payload.size());
    s += rdma::kIcrcBytes + kEthernetFcsBytes;
    return s;
  }

  /// Bytes of wire time the packet occupies (frame + preamble + IFG); this is
  /// what bandwidth accounting uses, so goodput numbers are honest.
  u32 wire_size() const noexcept { return frame_size() + kPhyOverheadBytes; }

  /// Short human-readable description for logs.
  std::string describe() const;
};

class Link;

/// One packet's passage over one direction of a link, fixed when the link
/// accepts it (Link::send_at).
struct InFlight {
  SimTime start = 0;    ///< transmit slot: when the sender handed it over
  SimTime arrival = 0;  ///< when its last bit lands at the far end
  u64 epoch = 0;        ///< the link's epoch at send (see Link::lost)
  Link* link = nullptr; ///< the link it crosses (null: injected, never lost)
  int from = 0;         ///< the sending endpoint
  u32 wire = 0;         ///< its wire size (Packet::wire_size)
};

/// Anything that can accept a delivered packet (NIC, switch port, ...).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// A packet landing now.
  virtual void deliver(Packet&& packet) = 0;
  /// Offered by the link at send time, before any arrival event exists. A
  /// sink that on arrival only queues the packet (a switch port's ingress
  /// parser, a NIC's receive buffer) may take it here and return true: the
  /// link then schedules no arrival event, and the sink drops the packet at
  /// its next stage if Link::lost() says so. By default the sink declines
  /// and deliver() runs at `flight.arrival`, ordered among its ties as if
  /// scheduled at `flight.start`.
  virtual bool take_in_flight(Packet&& /*packet*/, const InFlight& /*flight*/) { return false; }
};

/// Full-duplex point-to-point link. Each direction serializes packets at
/// `bandwidth_gbps` with FIFO queueing (a sender transmitting faster than the
/// link drains accumulates queueing delay), then delivers after
/// `propagation_delay`. A link can be cut (switch/host crash): packets in
/// flight and future sends are silently dropped, which is what makes RDMA
/// retransmission timeouts fire.
class Link {
 public:
  Link(sim::Simulator& sim, double bandwidth_gbps, Duration propagation_delay)
      : sim_(sim), bandwidth_gbps_(bandwidth_gbps), propagation_(propagation_delay) {}

  /// Attach the two endpoints. Endpoint index 0/1.
  void attach(PacketSink* end0, PacketSink* end1) noexcept {
    ends_[0] = end0;
    ends_[1] = end1;
  }

  /// Transmit `packet` from endpoint `from` (0 or 1) toward the other end.
  /// Returns the simulated time at which the last bit leaves the sender.
  SimTime send(int from, Packet&& packet) { return send_at(from, std::move(packet), sim_.now()); }

  /// send() with `start` (>= now) as the packet's transmit slot instead of
  /// now. Only the sole sender on its direction may post ahead, and only in
  /// `start` order (a NIC, a switch port's egress): then the FIFO
  /// arithmetic comes out exactly as if it had called send() at `start`,
  /// without an event to get there.
  SimTime send_at(int from, Packet&& packet, SimTime start);

  /// The sender at endpoint `from` goes dark now: packets it posted ahead
  /// whose transmit slot is at or after now, and before a later unsilence(),
  /// never reach the wire (see lost()). A dead NIC stays silent for good; a
  /// switch that powers back on unsilences its links.
  void silence(int from);
  /// End the silence of endpoint `from`: packets whose transmit slot is at
  /// or after now go out again.
  void unsilence(int from) noexcept;

  /// Whether the packet `flight` describes is lost: the link was cut
  /// between its send and its arrival, or its sender was silent at its
  /// transmit slot. A lost packet that never reached the wire (the sender
  /// was silent, or the link cut, by its slot) also comes off the counters.
  /// Call once per packet, at arrival or later.
  bool lost(const InFlight& flight) noexcept;

  /// Sever the link (both directions). In-flight deliveries are suppressed.
  void cut() {
    cut_at_.push_back(sim_.now());
    cut_ = true;
  }
  void restore() noexcept { cut_ = false; }
  bool is_cut() const noexcept { return cut_; }
  /// Cuts so far; a packet records it at send to tell whether one came since.
  u64 epoch() const noexcept { return cut_at_.size(); }

  double bandwidth_gbps() const noexcept { return bandwidth_gbps_; }
  Duration propagation_delay() const noexcept { return propagation_; }

  /// Total payload-carrying bytes sent per direction (wire bytes).
  u64 wire_bytes_sent(int from) const noexcept { return wire_bytes_[from]; }
  u64 packets_sent(int from) const noexcept { return packets_[from]; }

 private:
  struct Silence {
    SimTime begin;
    SimTime end;  ///< kTimeNever while it lasts
  };

  /// Whether a packet from `from` with transmit slot `start` falls in a
  /// silence.
  bool silent(int from, SimTime start) const noexcept;

  sim::Simulator& sim_;
  double bandwidth_gbps_;
  Duration propagation_;
  PacketSink* ends_[2] = {nullptr, nullptr};
  SimTime busy_until_[2] = {0, 0};
  std::vector<Silence> silences_[2];  ///< per direction, in time order
  u64 wire_bytes_[2] = {0, 0};
  u64 packets_[2] = {0, 0};
  std::vector<SimTime> cut_at_;  ///< cut_at_[e]: when the cut ending epoch e came
  bool cut_ = false;
};

}  // namespace p4ce::net
