// The *communication* half of the protocol, cleanly decoupled from the
// *decision* half exactly as the paper prescribes (§III): one decision
// protocol, two interchangeable communicators.
//
//  - MuCommunicator: the leader writes each replica's log individually over
//    n direct RDMA connections and aggregates the n ACKs itself (Mu).
//  - P4ceCommunicator: the leader sends one write to the switch, which
//    scatters it and returns a single aggregated ACK; on NAK or timeout it
//    transparently falls back to the Mu path and periodically probes the
//    switch to regain acceleration (§III-A).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "consensus/calibration.hpp"
#include "p4ce/tables.hpp"
#include "rdma/cm.hpp"
#include "rdma/completion.hpp"
#include "rdma/nic.hpp"
#include "rdma/qp.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace p4ce::consensus {

/// A replica endpoint from the leader's point of view.
struct ReplicaTarget {
  NodeId id = kInvalidNode;
  Ipv4Addr ip = 0;
  rdma::QueuePair* qp = nullptr;            ///< direct data QP toward this replica
  rdma::CompletionQueue* cq = nullptr;      ///< its completion queue
  u64 log_vaddr = 0;
  RKey log_rkey = 0;
  u64 log_len = 0;
  // The replica's atomics region (frontier + ballot + consensus slots), used
  // only by the one-sided backend (see one_sided.hpp for the layout).
  u64 atomic_vaddr = 0;
  RKey atomic_rkey = 0;
  u64 atomic_len = 0;
  bool excluded = false;
};

/// Releases per-entry commit callbacks strictly in sequence order, no matter
/// which order the (possibly mode-switching) acknowledgments arrive in.
class CommitSequencer {
 public:
  using DoneFn = std::function<void(Status)>;

  void expect(u64 seq, DoneFn done);
  void mark_ready(u64 seq, Status status);
  void set_next(u64 seq) noexcept { next_ = seq; }
  u64 next() const noexcept { return next_; }
  std::size_t outstanding() const noexcept { return ops_.size(); }
  /// Fail everything still outstanding (leader stepping down).
  void flush_all(Status status);

 private:
  void drain();
  struct Op {
    DoneFn done;
    bool ready = false;
    Status status;
  };
  std::map<u64, Op> ops_;
  u64 next_ = 1;
};

class Communicator {
 public:
  using DoneFn = std::function<void(Status)>;

  virtual ~Communicator() = default;

  /// Replicate `entry` (already in the leader's log at `offset`) to the
  /// replicas' logs at the same offset; `done` fires — in seq order — once
  /// f replicas acknowledged (commit) or the entry is known lost.
  virtual void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) = 0;

  /// Fire-and-forget ordered write to every replica's log (the ring-wrap
  /// record). Ordered before any subsequent replicate() on the same
  /// connections; acknowledgment is piggybacked on later entries.
  virtual void write_raw(u64 offset, Bytes bytes) = 0;

  virtual bool accelerated() const noexcept = 0;

  /// Stop replicating to a crashed replica.
  virtual void exclude_replica(NodeId id) = 0;

  /// Rebind the replica set (a peer (re)connected, or a re-route replaced
  /// every QP). Indices must follow the node's stable peer order.
  virtual void reset_targets(std::vector<ReplicaTarget> targets) = 0;

  virtual std::size_t outstanding() const noexcept = 0;

  /// Abort everything in flight (leader stepping down / rerouting).
  virtual void abort_all() = 0;
};

// ---------------------------------------------------------------------------

class MuCommunicator : public Communicator {
 public:
  MuCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                 u32 f_needed, std::vector<ReplicaTarget> targets);

  void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) override;
  void write_raw(u64 offset, Bytes bytes) override;
  bool accelerated() const noexcept override { return false; }
  void exclude_replica(NodeId id) override;
  std::size_t outstanding() const noexcept override { return sequencer_.outstanding(); }
  void abort_all() override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;

  void set_start_seq(u64 seq) { sequencer_.set_next(seq); }
  u64 live_target_count() const noexcept;

 private:
  void wire_completions();
  void on_completion(std::size_t target_index, const rdma::Completion& c);
  void fail_if_quorum_lost();

  sim::Simulator& sim_;
  sim::CpuExecutor& cpu_;
  Calibration cal_;
  u32 f_needed_;
  std::vector<ReplicaTarget> targets_;
  struct Pending {
    u32 acks = 0;
    bool resolved = false;
  };
  std::map<u64, Pending> pending_;  // by seq (wr_id)
  CommitSequencer sequencer_;
};

// ---------------------------------------------------------------------------

class P4ceCommunicator : public Communicator {
 public:
  /// Callbacks the owning node uses for instrumentation and state changes.
  struct Hooks {
    std::function<void(bool accelerated)> on_mode_change;
    std::function<void()> on_membership_updated;  ///< switch reconfig done
    /// Replicas may have holes after a NAK-triggered fallback (entries the
    /// switch committed with f other ACKs); the node refills them from its
    /// own log.
    std::function<void()> on_repair_needed;
  };

  P4ceCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                   u32 f_needed, std::vector<ReplicaTarget> targets, rdma::Nic& nic,
                   Ipv4Addr switch_ip, NodeId self, Hooks hooks);
  ~P4ceCommunicator() override;

  /// Connect to the switch and set the communication group up (§IV-A).
  /// `on_ready(status)` fires once accelerated (or after giving up, at which
  /// point the communicator is live in fallback mode).
  void activate(u64 term, std::function<void(Status)> on_ready);

  /// Start directly in the un-accelerated mode (the switch is known dead,
  /// §III-A "Faulty switch") and probe for re-acceleration periodically.
  void start_fallback(u64 term);

  void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) override;
  void write_raw(u64 offset, Bytes bytes) override;
  bool accelerated() const noexcept override { return state_ == State::kAccelerated; }
  void exclude_replica(NodeId id) override;
  std::size_t outstanding() const noexcept override;
  void abort_all() override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;

  void set_start_seq(u64 seq);
  u64 fallback_count() const noexcept { return fallbacks_; }
  u64 reaccelerations() const noexcept { return reaccelerations_; }
  /// Consensus instances served on the accelerated path before the first
  /// NAK-triggered fallback (how long good flow control kept the fast path).
  u64 ops_before_first_fallback() const noexcept {
    return fallbacks_ == 0 ? accel_ops_ : accel_ops_at_first_fallback_;
  }

 private:
  enum class State { kInactive, kConnecting, kAccelerated, kFallback };

  void on_switch_completion(const rdma::Completion& c);
  void enter_fallback();
  void probe_reacceleration();
  bool member_set_grew() const;

  sim::Simulator& sim_;
  sim::CpuExecutor& cpu_;
  Calibration cal_;
  u32 f_needed_;
  rdma::Nic& nic_;
  Ipv4Addr switch_ip_;
  NodeId self_;
  Hooks hooks_;
  obs::Counter& m_fallbacks_;
  obs::Counter& m_reaccelerations_;
  u64 term_ = 0;

  State state_ = State::kInactive;
  /// CM handshakes outlive us when a re-route destroys the communicator
  /// mid-connect; their callbacks capture a weak_ptr to this token and
  /// return early once it expires instead of touching freed state.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  rdma::CompletionQueue switch_cq_;
  rdma::QueuePair* switch_qp_ = nullptr;
  u64 virtual_base_ = 0;
  RKey virtual_rkey_ = 0;
  Qpn bcast_qpn_ = 0;

  MuCommunicator fallback_;
  /// Membership view (ids/ips/exclusion only; QPs live in fallback_).
  std::vector<ReplicaTarget> targets_snapshot_;
  /// The replica IPs the current/most recent group request named.
  std::vector<Ipv4Addr> group_member_ips_;
  /// Ops in flight on the accelerated path: seq -> (offset, entry) so they
  /// can be replayed through the fallback path after a NAK/timeout.
  struct AccelOp {
    u64 offset;
    Bytes entry;
  };
  std::map<u64, AccelOp> accel_pending_;
  CommitSequencer sequencer_;
  sim::PeriodicTimer reaccel_timer_;
  u64 fallbacks_ = 0;
  u64 reaccelerations_ = 0;
  u64 accel_ops_ = 0;
  u64 accel_ops_at_first_fallback_ = 0;
  bool update_in_flight_ = false;
};

}  // namespace p4ce::consensus
