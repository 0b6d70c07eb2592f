#include "rdma/nic.hpp"

#include <algorithm>
#include <cassert>

#include "obs/context.hpp"
#include "rdma/cm.hpp"

namespace p4ce::rdma {

Nic::Nic(sim::Simulator& sim, std::string name, Ipv4Addr ip, net::MacAddr mac,
         MemoryManager& memory, NicConfig config)
    : sim_(sim),
      name_(std::move(name)),
      ip_(ip),
      mac_(mac),
      memory_(memory),
      config_(config),
      cm_(std::make_unique<CmAgent>(*this)),
      m_rx_overflows_(sim.obs().metrics.counter("rdma.nic.rx_overflows", {{"nic", name_}})),
      m_dropped_(sim.obs().metrics.counter("rdma.nic.dropped", {{"nic", name_}})) {}

Nic::~Nic() = default;

u32 Nic::attach_link(net::Link* link, int end) {
  paths_.push_back(Path{link, end});
  return static_cast<u32>(paths_.size() - 1);
}

void Nic::set_active_path(u32 path_index) {
  assert(path_index < paths_.size());
  active_path_ = path_index;
}

QueuePair& Nic::create_qp(CompletionQueue& cq, QpConfig config) {
  const Qpn qpn = next_qpn_++;
  auto qp = std::make_unique<QueuePair>(sim_, *this, qpn, cq, config);
  auto& ref = *qp;
  qps_.emplace(qpn, std::move(qp));
  return ref;
}

QueuePair* Nic::find_qp(Qpn qpn) noexcept {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

void Nic::destroy_qp(Qpn qpn) { qps_.erase(qpn); }

void Nic::send_packet(net::Packet&& packet) {
  if (!powered_ || paths_.empty()) return;
  ++tx_count_;
  // Per-packet transmit processing models the NIC's message rate limit; it
  // pipelines with (does not add to) link serialization. The packet reaches
  // the link at the end of its turn, its transmit slot. The NIC is the only
  // sender on its side of each link and its slots only move forward, so it
  // hands the packet over now with that slot as the send time.
  tx_busy_until_ = std::max(tx_busy_until_, sim_.now()) + config_.tx_per_packet;
  const Path& path = paths_[active_path_];
  path.link->send_at(path.end, std::move(packet), tx_busy_until_);
}

void Nic::power_off() noexcept {
  land();  // what landed before now was received
  powered_ = false;
  for (const Path& path : paths_) path.link->silence(path.end);
}

void Nic::stall_rx(SimTime from, SimTime until, Duration per_packet) {
  assert(from < until && (stalls_.empty() || stalls_.back().until <= from));
  stalls_.push_back(Stall{from, until, per_packet});
}

void Nic::deliver(net::Packet&& packet) {
  if (!powered_) return;
  const SimTime now = sim_.now();
  const net::InFlight flight{now, now, 0, nullptr, 0, packet.wire_size()};
  admit(std::move(packet), flight, sim_.running_key());
}

bool Nic::take_in_flight(net::Packet&& packet, const net::InFlight& flight) {
  // A dead card leaves the packet to the link's arrival event, which drops
  // it (and settles the link's counters if it never reached the wire).
  if (!powered_) return false;
  // Its landing sits among the events at its arrival where the link's
  // arrival event would have: scheduled at its transmit slot, now.
  admit(std::move(packet), flight, TieKey{flight.start, sim_.next_seq()});
  return true;
}

void Nic::admit(net::Packet&& packet, const net::InFlight& flight, TieKey lands) {
  RxSlot slot{flight, lands, sim_.next_seq(), kTimeNever, false};
  if (buffered_when_landing(slot) >= config_.rx_buffer_capacity) {
    // Receive buffer exhausted when it lands: the card tail-drops, exactly
    // the overload the advertised credit count is supposed to prevent.
    rx_slots_.push_back(slot);
    return;
  }
  const SimTime start = std::max(rx_busy_until_, flight.arrival);
  rx_busy_until_ = start + rx_cost(flight.arrival);
  slot.done = rx_busy_until_;
  rx_slots_.push_back(slot);
  auto rx = [this, p = std::move(packet)] {
    if (!powered_) return;
    land();
    // Slots ahead of this one were tail-dropped (rx events run in slot
    // order); they have landed and been counted.
    while (rx_slots_.front().done == kTimeNever) pop_rx_slot();
    const bool buffered = rx_slots_.front().buffered;
    if (buffered) --rx_pending_;
    pop_rx_slot();
    if (buffered) dispatch(p);
  };
  static_assert(sim::Simulator::fits_inline<decltype(rx)>(),
                "a NIC rx event must not heap-allocate");
  // Ordered among its ties as if the packet's arrival had scheduled it.
  sim_.schedule_at(slot.done, flight.arrival, std::move(rx));
}

u32 Nic::buffered_when_landing(const RxSlot& slot) const noexcept {
  // rx ends come in slot order, so walk back from the newest slot while
  // the rx still runs after `slot` lands.
  const TieKey landing = slot.lands;
  u32 buffered = 0;
  for (std::size_t i = rx_slots_.size(); i-- > 0;) {
    const RxSlot& other = rx_slots_[i];
    if (other.done == kTimeNever) continue;
    const bool rx_after = other.done > slot.flight.arrival ||
                          (other.done == slot.flight.arrival &&
                           TieKey{other.flight.arrival, other.rx_seq} > landing);
    if (!rx_after) break;
    if (i < landed_ && !other.buffered) continue;  // landed lost, or on a dead card
    const bool landed_first =
        other.flight.arrival != slot.flight.arrival ? other.flight.arrival < slot.flight.arrival
                                                    : other.lands <= landing;
    if (landed_first) ++buffered;
  }
  return buffered;
}

Duration Nic::rx_cost(SimTime arrival) {
  while (!stalls_.empty() && stalls_.front().until <= arrival) stalls_.pop_front();
  if (!stalls_.empty() && stalls_.front().from <= arrival) return stalls_.front().per_packet;
  return config_.rx_per_packet;
}

void Nic::land() const noexcept {
  const SimTime now = sim_.now();
  const TieKey running = sim_.running_key();
  for (; landed_ < rx_slots_.size(); ++landed_) {
    RxSlot& slot = rx_slots_[landed_];
    if (slot.flight.arrival > now || (slot.flight.arrival == now && slot.lands > running)) break;
    const bool lost = slot.flight.link != nullptr && slot.flight.link->lost(slot.flight);
    if (lost || !powered_) continue;
    ++rx_count_;
    if (slot.done == kTimeNever) {
      m_rx_overflows_.inc();
    } else {
      slot.buffered = true;
      ++rx_pending_;
    }
  }
}

void Nic::pop_rx_slot() noexcept {
  assert(landed_ > 0);
  rx_slots_.pop_front();
  --landed_;
}

void Nic::dispatch(const net::Packet& packet) {
  if (packet.bth.dest_qp == kCmQpn || packet.is_cm()) {
    cm_->handle(packet);
    return;
  }
  QueuePair* qp = find_qp(packet.bth.dest_qp);
  if (qp == nullptr) {
    m_dropped_.inc();
    return;
  }
  qp->handle_packet(packet);
}

u8 Nic::current_credits() const noexcept {
  land();
  if (rx_pending_ >= config_.rx_buffer_capacity) return 0;
  const u32 free = config_.rx_buffer_capacity - rx_pending_;
  return static_cast<u8>(std::min<u32>(free, 31));
}

}  // namespace p4ce::rdma
