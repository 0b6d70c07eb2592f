#include "consensus/heartbeat.hpp"

#include <cstring>

#include "obs/context.hpp"

namespace p4ce::consensus {

HeartbeatMonitor::HeartbeatMonitor(sim::Simulator& sim, rdma::MemoryRegion& own_counter,
                                   u32 peer_count, const Calibration& cal, ReadPeerFn read_peer,
                                   ViewChangedFn view_changed)
    : sim_(sim),
      own_(own_counter),
      cal_(cal),
      read_peer_(std::move(read_peer)),
      view_changed_(std::move(view_changed)),
      m_misses_(sim.obs().metrics.counter("consensus.heartbeat.misses")),
      m_recoveries_(sim.obs().metrics.counter("consensus.heartbeat.recoveries")),
      peers_(peer_count),
      update_timer_(sim, cal.heartbeat_update_period, [this] { bump_own(); }),
      check_timer_(sim, cal.heartbeat_check_period, [this] { check_peers(); }) {
  bump_own();
}

void HeartbeatMonitor::start() {
  for (auto& peer : peers_) peer.last_progress = sim_.now();
  update_timer_.start();
  check_timer_.start();
}

void HeartbeatMonitor::stop() {
  update_timer_.stop();
  check_timer_.stop();
}

void HeartbeatMonitor::bump_own() {
  ++counter_;
  std::memcpy(own_.bytes(), &counter_, sizeof(counter_));
}

void HeartbeatMonitor::check_peers() {
  for (u32 i = 0; i < peers_.size(); ++i) {
    read_peer_(i, [this, i](u64 value) { on_read(i, value); });
  }
  if (frozen_) return;
  bool changed = false;
  const SimTime now = sim_.now();
  for (auto& peer : peers_) {
    if (peer.alive && now - peer.last_progress > cal_.liveness_timeout) {
      peer.alive = false;
      changed = true;
      m_misses_.inc();
    }
  }
  if (changed && view_changed_) view_changed_();
}

void HeartbeatMonitor::on_read(u32 peer_index, u64 value) {
  PeerState& peer = peers_[peer_index];
  if (value > peer.last_value) {
    peer.last_value = value;
    peer.last_progress = sim_.now();
    if (!peer.alive && !frozen_) {
      peer.alive = true;
      m_recoveries_.inc();
      if (view_changed_) view_changed_();
    }
  }
}

u32 HeartbeatMonitor::alive_count() const noexcept {
  u32 n = 0;
  for (const auto& peer : peers_) n += peer.alive ? 1 : 0;
  return n;
}

void HeartbeatMonitor::reset_all_alive() {
  for (auto& peer : peers_) {
    peer.alive = true;
    peer.last_progress = sim_.now();
  }
}

void HeartbeatMonitor::mark_dead(u32 peer_index) {
  PeerState& peer = peers_.at(peer_index);
  if (!peer.alive) return;
  peer.alive = false;
  peer.last_progress = -cal_.liveness_timeout;
  if (view_changed_) view_changed_();
}

}  // namespace p4ce::consensus
