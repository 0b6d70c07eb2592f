#include "net/packet.hpp"

#include <algorithm>

namespace p4ce::net {

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
