// The packet object that flows through the simulated network, plus the
// point-to-point link model with bandwidth, propagation delay and FIFO
// queueing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

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

  /// Exact size of the buffer encode() produces: the frame minus the FCS
  /// (not serialized) plus the layout byte and the payload-length word the
  /// encoder writes for unambiguous round-trips.
  u32 encoded_size() const noexcept { return frame_size() - kEthernetFcsBytes + 1 + 4; }

  /// Serialize the full packet to network byte order (tests / fidelity).
  Bytes encode() const;
  /// Parse a packet previously produced by encode().
  static Packet decode(BytesView bytes, bool* ok = nullptr);

  /// Short human-readable description for logs.
  std::string describe() const;
};

/// Anything that can accept a delivered packet (NIC, switch port, ...).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet packet) = 0;
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
  SimTime send(int from, Packet packet);

  /// Sever the link (both directions). In-flight deliveries are suppressed.
  void cut() noexcept {
    ++epoch_;
    cut_ = true;
  }
  void restore() noexcept { cut_ = false; }
  bool is_cut() const noexcept { return cut_; }

  double bandwidth_gbps() const noexcept { return bandwidth_gbps_; }
  Duration propagation_delay() const noexcept { return propagation_; }

  /// Total payload-carrying bytes sent per direction (wire bytes).
  u64 wire_bytes_sent(int from) const noexcept { return wire_bytes_[from]; }
  u64 packets_sent(int from) const noexcept { return packets_[from]; }

 private:
  sim::Simulator& sim_;
  double bandwidth_gbps_;
  Duration propagation_;
  PacketSink* ends_[2] = {nullptr, nullptr};
  SimTime busy_until_[2] = {0, 0};
  u64 wire_bytes_[2] = {0, 0};
  u64 packets_[2] = {0, 0};
  u64 epoch_ = 0;  ///< bumped on cut(); stale deliveries check it
  bool cut_ = false;
};

}  // namespace p4ce::net
