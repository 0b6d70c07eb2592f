// Liveness via heartbeat counters read over RDMA: "to prove its liveness,
// each machine keeps a heartbeat value, periodically increased. Machines
// frequently read each other's heartbeats: the liveness of other machines
// is assessed by checking if their heartbeats increase over time" (§III).
#pragma once

#include <functional>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "consensus/calibration.hpp"
#include "rdma/memory.hpp"
#include "sim/simulator.hpp"

namespace p4ce::consensus {

/// Issues the periodic remote reads through a caller-supplied hook (the node
/// owns the QPs) and tracks per-peer progress. Invokes the view callback
/// whenever the alive set changes.
class HeartbeatMonitor {
 public:
  /// `read_peer(peer_index, done)`: RDMA-read the peer's heartbeat counter
  /// and call done(value) on completion; on failure simply never call done.
  using ReadPeerFn = std::function<void(u32, std::function<void(u64)>)>;
  using ViewChangedFn = std::function<void()>;

  HeartbeatMonitor(sim::Simulator& sim, rdma::MemoryRegion& own_counter, u32 peer_count,
                   const Calibration& cal, ReadPeerFn read_peer, ViewChangedFn view_changed);

  void start();
  void stop();

  /// Freeze liveness judgments (during a network re-route every read fails;
  /// that must not be mistaken for everyone dying, §III-A).
  void set_frozen(bool frozen) noexcept { frozen_ = frozen; }

  bool peer_alive(u32 peer_index) const { return peers_.at(peer_index).alive; }
  u32 alive_count() const noexcept;

  /// Force-mark a peer (used by tests and by explicit exclusion).
  void mark_dead(u32 peer_index);

  /// Optimistically revive every peer (after a network re-route: the old
  /// path's silence said nothing about the peers themselves; heartbeats
  /// over the new route re-establish the truth).
  void reset_all_alive();

 private:
  void bump_own();
  void check_peers();
  void on_read(u32 peer_index, u64 value);

  struct PeerState {
    u64 last_value = 0;
    SimTime last_progress = 0;
    bool alive = true;
  };

  sim::Simulator& sim_;
  rdma::MemoryRegion& own_;
  Calibration cal_;
  ReadPeerFn read_peer_;
  ViewChangedFn view_changed_;
  obs::Counter& m_misses_;
  obs::Counter& m_recoveries_;
  std::vector<PeerState> peers_;
  sim::PeriodicTimer update_timer_;
  sim::PeriodicTimer check_timer_;
  u64 counter_ = 1;
  bool frozen_ = false;
};

}  // namespace p4ce::consensus
