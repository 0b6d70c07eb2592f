// The consensus layer's paper-derived model constants, each with the sentence
// in the paper (or the measurement in its evaluation) that justifies it.
// Changing these changes absolute numbers, not the shapes the benches check.
// Fields are the values a bench or test varies; static constexpr members are
// fixed. The testbed's hardware constants sit beside the models that use
// them: link rate in core/cluster.hpp, switch latencies and parser rate in
// switchsim/switch.hpp and port.hpp, switch reconfiguration in
// p4ce/control_plane.cpp, RDMA timeout in rdma/qp.hpp.
#pragma once

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::consensus {

struct Calibration {
  // ------------------------------------------------------------------
  // Leader CPU cost model, calibrated against §V-C: "P4CE can sustain
  // 2.3 million consensus per second, a 1.9x speed increase over Mu with 2
  // replicas and around 3.8x with 4 replicas". Per consensus:
  //   P4CE: decision + 1 post + 1 completion               = 440 ns -> 2.27 M/s
  //   Mu,2: decision + 2 posts + 2 completions + 2 track   = 890 ns -> 1.12 M/s
  //   Mu,4: decision + 4 posts + 4 completions + 4 track   = 1670 ns -> 0.60 M/s
  // ------------------------------------------------------------------
  Duration cpu_post_wr = 180;  ///< ns to post one RDMA work request
  static constexpr Duration cpu_completion = 150;  ///< ns to poll + handle one CQE
  static constexpr Duration cpu_decision = 110;    ///< ns of per-consensus decision logic
  static constexpr Duration cpu_mu_track = 60;     ///< ns per-replica ACK bookkeeping (Mu only)
  /// ns per value in the batched append loop (Fig. 5)
  static constexpr Duration cpu_batch_value = 5;
  static constexpr Duration cpu_deliver = 30;      ///< ns per delivered entry on a replica
  static constexpr double memcpy_gbps = 32.0;      ///< leader copying a value into its log

  // ------------------------------------------------------------------
  // Protocol timings (§III, §V-E).
  // ------------------------------------------------------------------
  /// "each machine keeps a heartbeat value, periodically increased" and the
  /// exchange runs every ~100 us; we update and check faster so end-to-end
  /// detection lands at the 0.1 ms the paper measures for Mu replica crash.
  Duration heartbeat_update_period = 10'000;   // ns
  Duration heartbeat_check_period = 20'000;    // ns
  Duration liveness_timeout = 100'000;         // ns: declared dead after this
  /// "Electing a new leader mainly consists in changing the permissions of
  /// the queue pairs. The operation takes 0.9 ms on average" — minus the
  /// 0.1 ms detection and the candidate's 0.1 ms grant-collection grace,
  /// this is the permission-switch cost itself.
  static constexpr Duration permission_change_delay = 680'000;  // ns
  /// "the leader periodically tries to re-establish a connection through
  /// the switch to enable in-network replication again" (§III-A).
  Duration reacceleration_period = 100'000'000;  // ns
  /// "both Mu and P4CE re-establish connections using a non-accelerated
  /// alternative route, which takes most of the time. Reconnecting and
  /// reconfiguring takes 60 ms in both cases" (§V-E). Minus the 131 us
  /// RDMA timeout that triggers it.
  static constexpr Duration fallback_reconnect_delay = 59'700'000;  // ns

  /// Maximum outstanding messages per QP ("a given RDMA connection can only
  /// have up to 16 pending write requests", §IV-C).
  u32 max_outstanding = 16;

  /// RoCE path MTU (payload bytes per packet); the paper's setup splits
  /// large writes into 1 KiB payloads (§IV-B).
  u32 mtu = 1024;

  /// How often an active leader reconciles its replica set with the
  /// heartbeat view: a replica that is alive but has a broken/missing data
  /// connection (e.g. a write raced its permission switch and got NAK'd)
  /// is reconnected and its log refilled.
  static constexpr Duration leader_reconcile_period = 5'000'000;  // ns

  /// Preset for throughput/latency experiments: heartbeats relaxed so the
  /// background control traffic does not perturb the measured data path
  /// (the paper's heartbeats are "a few hundred messages per second").
  static Calibration throughput() {
    Calibration c;
    c.heartbeat_update_period = 500'000;
    c.heartbeat_check_period = 1'000'000;
    c.liveness_timeout = 5'000'000;
    return c;
  }

  /// Preset for the fail-over experiments (Table IV): paper-fidelity
  /// detection latencies.
  static Calibration failover() { return Calibration{}; }
};

}  // namespace p4ce::consensus
