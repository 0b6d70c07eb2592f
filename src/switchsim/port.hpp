// A switch port: the attachment point of a link plus the per-port ingress
// and egress parsers. "Each server link has its own ingress and egress
// parser" (paper Fig. 1), and each parser has a finite packet rate — 121 M
// packets per second with the P4CE program loaded (§IV-D). That per-parser
// limit is why P4CE drops aggregated ACKs in the *replica's ingress* instead
// of funnelling them all through the leader's egress parser.
#pragma once

#include <functional>

#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"

namespace p4ce::sw {

class SwitchDevice;

/// Per-port parser packet rate: "each ingress and each egress parser can
/// process 121 million packets per second" with the P4CE program (§IV-D).
inline constexpr double kParserPps = 121e6;

/// Serial packet-rate resource with sub-nanosecond resolution (tracked in
/// picoseconds so 121 M pps == 8.26 ns/packet models exactly).
class ParserModel {
 public:
  explicit ParserModel(double packets_per_second) noexcept
      : per_packet_ps_(static_cast<i64>(1e12 / packets_per_second)) {}

  /// Admit one packet at `now`; returns the time its parse completes.
  SimTime admit(SimTime now) noexcept {
    const i64 now_ps = now * 1000;
    const i64 start = busy_until_ps_ > now_ps ? busy_until_ps_ : now_ps;
    busy_until_ps_ = start + per_packet_ps_;
    ++processed_;
    return (busy_until_ps_ + 999) / 1000;  // ceil to ns
  }

  u64 processed() const noexcept { return processed_; }
  /// When the last admitted packet's parse completes (0 if none was).
  SimTime busy_until() const noexcept { return (busy_until_ps_ + 999) / 1000; }
  /// Current backlog in ns (how far behind real time the parser is).
  Duration backlog(SimTime now) const noexcept {
    const i64 b = busy_until_ps_ / 1000 - now;
    return b > 0 ? b : 0;
  }

 private:
  i64 per_packet_ps_;
  i64 busy_until_ps_ = 0;
  u64 processed_ = 0;
};

/// A physical port. Implements PacketSink so links can deliver straight into
/// the switch with the port index attached. Only its link feeds its ingress
/// parser, in send order, so it takes every packet at send time
/// (take_in_flight) and the switch schedules the ingress stage right away;
/// the egress stage runs inside that event (SwitchDevice::run_egress).
class Port : public net::PacketSink {
 public:
  Port(SwitchDevice& device, u32 index);

  void attach_link(net::Link* link, int end) noexcept {
    link_ = link;
    end_ = end;
  }

  /// A packet landing now without a link flight (injected by a test or a
  /// bench); it takes the same path as one from the link.
  void deliver(net::Packet&& packet) override;
  bool take_in_flight(net::Packet&& packet, const net::InFlight& flight) override;

  /// Post a finished egress copy onto the wire for transmit slot `start`
  /// (its egress time; copies come in `start` order).
  void transmit(net::Packet&& packet, SimTime start);
  /// Silence (or end the silence of) this port's side of its link.
  void set_silent(bool silent);

  u32 index() const noexcept { return index_; }
  net::Link* link() const noexcept { return link_; }

  ParserModel& ingress_parser() noexcept { return ingress_parser_; }
  ParserModel& egress_parser() noexcept { return egress_parser_; }

  u64 rx_packets() const noexcept { return m_rx_pkts_.value(); }
  u64 tx_packets() const noexcept { return m_tx_pkts_.value(); }

  /// Record the ingress parser's current backlog on this port's gauge.
  void note_ingress_backlog(SimTime now) noexcept;
  /// Record the egress parser's current backlog on this port's gauge.
  void note_egress_backlog(SimTime now) noexcept;

 private:
  SwitchDevice& device_;
  u32 index_;
  net::Link* link_ = nullptr;
  int end_ = 0;
  ParserModel ingress_parser_;
  ParserModel egress_parser_;
  // Registry instruments, labelled {sw=<device>,port=<index>}; bound once
  // at construction so the per-packet path is a plain add. The packet
  // getters above read them.
  obs::Counter& m_rx_pkts_;
  obs::Counter& m_rx_bytes_;
  obs::Counter& m_tx_pkts_;
  obs::Counter& m_tx_bytes_;
  obs::Gauge& m_ingress_backlog_;
  obs::Gauge& m_egress_backlog_;
};

}  // namespace p4ce::sw
