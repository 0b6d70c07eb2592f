#include "rdma/nic.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
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
      cm_(std::make_unique<CmAgent>(*this)) {}

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
  powered_ = false;
  for (const Path& path : paths_) path.link->silence(path.end);
}

void Nic::deliver(net::Packet&& packet) {
  if (!powered_) return;
  ++rx_count_;
  if (rx_pending_ >= config_.rx_buffer_capacity) {
    // Receive buffer exhausted: the card tail-drops, exactly the overload
    // the advertised credit count is supposed to prevent.
    ++rx_overflow_count_;
    return;
  }
  ++rx_pending_;
  const SimTime start = std::max(rx_busy_until_, sim_.now());
  rx_busy_until_ = start + config_.rx_per_packet;
  sim_.schedule_at(rx_busy_until_, [this, p = std::move(packet)] {
    if (rx_pending_ > 0) --rx_pending_;
    if (!powered_) return;
    dispatch(p);
  });
}

void Nic::dispatch(const net::Packet& packet) {
  if (packet.bth.dest_qp == kCmQpn || packet.is_cm()) {
    cm_->handle(packet);
    return;
  }
  QueuePair* qp = find_qp(packet.bth.dest_qp);
  if (qp == nullptr) {
    ++drop_count_;
    log(LogLevel::kDebug, sim_.now(), name_, "drop, no QP: " + packet.describe());
    return;
  }
  qp->handle_packet(packet);
}

u8 Nic::current_credits() const noexcept {
  if (rx_pending_ >= config_.rx_buffer_capacity) return 0;
  const u32 free = config_.rx_buffer_capacity - rx_pending_;
  return static_cast<u8>(std::min<u32>(free, 31));
}

}  // namespace p4ce::rdma
