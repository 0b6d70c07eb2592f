#include "net/packet.hpp"

#include <algorithm>
#include <cstdio>

namespace p4ce::net {

namespace {
// Marker bits describing which optional headers follow BTH. A real RoCE
// parser infers this from the BTH opcode; our CM messages are a modeling
// construct, so the encoder writes an explicit layout byte right after the
// UDP header to keep decode unambiguous and round-trip exact.
constexpr u8 kHasReth = 0x01;
constexpr u8 kHasAeth = 0x02;
constexpr u8 kHasCm = 0x04;
constexpr u8 kHasAtomicEth = 0x08;
constexpr u8 kHasAtomicAckEth = 0x10;
}  // namespace

Bytes Packet::encode() const {
  Bytes out;
  out.reserve(encoded_size());
  ByteWriter w(out);
  eth.encode(w);
  ip.encode(w);
  udp.encode(w);
  u8 layout = 0;
  if (reth) layout |= kHasReth;
  if (aeth) layout |= kHasAeth;
  if (cm) layout |= kHasCm;
  if (atomic_eth) layout |= kHasAtomicEth;
  if (atomic_ack_eth) layout |= kHasAtomicAckEth;
  w.u8be(layout);
  bth.encode(w);
  if (reth) reth->encode(w);
  if (aeth) aeth->encode(w);
  if (atomic_eth) atomic_eth->encode(w);
  if (atomic_ack_eth) atomic_ack_eth->encode(w);
  if (cm) cm->encode(w);
  w.u32be(static_cast<u32>(payload.size()));
  w.raw(payload.view());
  w.u32be(0xdeadbeef);  // ICRC placeholder (not computed in the model)
  return out;
}

Packet Packet::decode(BytesView bytes, bool* ok) {
  Packet p;
  ByteReader r(bytes);
  p.eth = EthernetHeader::decode(r);
  p.ip = Ipv4Header::decode(r);
  p.udp = UdpHeader::decode(r);
  const u8 layout = r.u8be();
  p.bth = rdma::Bth::decode(r);
  if (layout & kHasReth) p.reth = rdma::Reth::decode(r);
  if (layout & kHasAeth) p.aeth = rdma::Aeth::decode(r);
  if (layout & kHasAtomicEth) {
    p.atomic_eth =
        rdma::AtomicEth::decode(r, p.bth.opcode == rdma::Opcode::kMaskedCompareSwap);
  }
  if (layout & kHasAtomicAckEth) p.atomic_ack_eth = rdma::AtomicAckEth::decode(r);
  if (layout & kHasCm) p.cm = rdma::CmMessage::decode(r);
  const u32 payload_len = r.u32be();
  // The single materialization point on the parse path: one counted copy out
  // of the wire buffer into an owned payload.
  p.payload = PayloadRef::copy_of(r.view(payload_len));
  r.skip(4);  // ICRC
  if (ok) *ok = r.ok();
  return p;
}

std::string Packet::describe() const {
  char buf[160];
  if (cm) {
    std::snprintf(buf, sizeof(buf), "CM %s %s->%s qpn=%u psn=%u",
                  std::string(rdma::to_string(cm->type)).c_str(), ipv4_to_string(ip.src).c_str(),
                  ipv4_to_string(ip.dst).c_str(), cm->sender_qpn, cm->starting_psn);
  } else {
    std::snprintf(buf, sizeof(buf), "%s %s->%s dqp=%u psn=%u len=%zu%s",
                  std::string(rdma::to_string(bth.opcode)).c_str(),
                  ipv4_to_string(ip.src).c_str(), ipv4_to_string(ip.dst).c_str(), bth.dest_qp,
                  bth.psn, payload.size(), is_nak() ? " NAK" : "");
  }
  return buf;
}

SimTime Link::send_at(int from, Packet&& packet, SimTime start) {
  if (is_cut() || ends_[1 - from] == nullptr) return start;

  const u32 wire = packet.wire_size();
  SimTime& busy = busy_until_[from];
  const SimTime done = std::max(busy, start) + serialization_delay(wire, bandwidth_gbps_);
  busy = done;
  wire_bytes_[from] += wire;
  ++packets_[from];

  const InFlight flight{start, done + propagation_, epoch(), this, from, wire};
  PacketSink* dst = ends_[1 - from];
  if (dst->take_in_flight(std::move(packet), flight)) return done;
  auto hop = [this, dst, flight, p = std::move(packet)]() mutable {
    if (lost(flight)) return;
    dst->deliver(std::move(p));
  };
  static_assert(sim::Simulator::fits_inline<decltype(hop)>(),
                "a link hop must not heap-allocate its event");
  sim_.schedule_at(flight.arrival, start, std::move(hop));
  return done;
}

void Link::silence(int from) {
  std::vector<Silence>& windows = silences_[from];
  if (!windows.empty() && windows.back().end == kTimeNever) return;
  windows.push_back(Silence{sim_.now(), kTimeNever});
}

void Link::unsilence(int from) noexcept {
  std::vector<Silence>& windows = silences_[from];
  if (!windows.empty() && windows.back().end == kTimeNever) windows.back().end = sim_.now();
}

bool Link::silent(int from, SimTime start) const noexcept {
  for (const Silence& window : silences_[from]) {
    if (start < window.begin) return false;
    if (start < window.end) return true;
  }
  return false;
}

bool Link::lost(const InFlight& flight) noexcept {
  const bool silenced = silent(flight.from, flight.start);
  const bool severed = flight.epoch < epoch() && cut_at_[flight.epoch] <= flight.arrival;
  if (!silenced && !severed) return false;
  if (silenced || cut_at_[flight.epoch] <= flight.start) {
    wire_bytes_[flight.from] -= flight.wire;
    --packets_[flight.from];
  }
  return true;
}

}  // namespace p4ce::net
