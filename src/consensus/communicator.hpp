// The *communication* half of the protocol, cleanly decoupled from the
// *decision* half exactly as the paper prescribes (§III): one decision
// protocol (consensus::Node, which also owns the commit sequencer), three
// interchangeable communicators that only report each op's verdict.
//
//  - MuCommunicator: the leader writes each replica's log individually over
//    n direct RDMA connections and aggregates the n ACKs itself (Mu).
//  - P4ceCommunicator: the leader sends one write to the switch, which
//    scatters it and returns a single aggregated ACK; on NAK or timeout it
//    transparently falls back to the Mu path and periodically probes the
//    switch to regain acceleration (§III-A).
//  - OneSidedCommunicator (one_sided.hpp): Velos-style Paxos over verbs
//    atomics on the same direct connections as Mu.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring.hpp"
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

/// Per-op state keyed by op number: a window over a Ring. A node numbers its
/// ops densely and keeps few in flight, so the live ops span a short run of
/// numbers. Slot `i` holds op `front + i`, or nothing once that op has left.
/// insert() appends, giving any op numbers it skips an empty slot; the op
/// must be newer than every op present, and every build aborts if it is not.
/// erase() empties the op's slot and then pops empty slots off the front.
/// Memory therefore follows the live span, from the oldest op present to the
/// newest: an op that never leaves pins every slot after it. The Ring grows
/// and halves the array (see common/ring.hpp). take_all() and
/// for_each_in_order() walk from front to back, which is op order. Lookup,
/// insert and erase cost no allocation while the window stays put.
///
/// Growing and shrinking move the ops: a reference or pointer into the
/// table is valid only until the next insert or erase. A caller that may
/// re-enter the table meanwhile looks its op up again by number.
template <class T>
class OpWindow {
 public:
  /// Store `value` for `op`, which must be newer than every op present.
  T& insert(u64 op, T value) {
    if (slots_.empty()) front_ = op;
    if (op < end()) {
      std::fprintf(stderr, "OpWindow: op %llu is not newer than op %llu\n",
                   static_cast<unsigned long long>(op),
                   static_cast<unsigned long long>(end() - 1));
      std::abort();
    }
    while (end() < op) slots_.emplace_back();
    std::optional<T>& slot = slots_.emplace_back();
    slot = std::move(value);
    ++size_;
    return *slot;
  }

  T* find(u64 op) noexcept {
    if (op < front_ || op >= end()) return nullptr;
    std::optional<T>& slot = slots_[op - front_];
    return slot ? &*slot : nullptr;
  }

  /// Remove `op`; false if it was not present.
  bool erase(u64 op) {
    if (find(op) == nullptr) return false;
    slots_[op - front_].reset();  // drop captures and payload references now
    --size_;
    while (!slots_.empty() && !slots_.front()) {
      slots_.pop_front();
      ++front_;
    }
    return true;
  }

  /// Remove every op and return them in op order. The table is empty (and
  /// may be refilled) before the caller acts on any of them.
  std::vector<std::pair<u64, T>> take_all() {
    std::vector<std::pair<u64, T>> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) out.emplace_back(front_ + i, std::move(*slots_[i]));
    }
    clear();
    return out;
  }

  /// Call `fn(op, value)` for every op present now, in op order. Each op is
  /// looked up again just before its call, so `fn` may insert and erase
  /// ops: one erased before its turn is skipped, and one inserted after the
  /// walk's newest op is not visited.
  template <class Fn>
  void for_each_in_order(Fn&& fn) {
    const u64 last = end();
    for (u64 op = front_; op < last; ++op) {
      if (T* value = find(op)) fn(op, *value);
    }
  }

  /// Remove every op; a table grown past Ring's floor drops back to it.
  void clear() {
    slots_.clear();
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  /// Slots allocated now.
  std::size_t capacity() const noexcept { return slots_.capacity(); }

 private:
  /// One past the newest op the window holds.
  u64 end() const noexcept { return front_ + slots_.size(); }

  Ring<std::optional<T>> slots_;
  u64 front_ = 0;         ///< the op number of slot 0
  std::size_t size_ = 0;  ///< ops present
};

/// A replica endpoint from the leader's point of view.
struct ReplicaTarget {
  NodeId id = kInvalidNode;
  Ipv4Addr ip = 0;
  rdma::QueuePair* qp = nullptr;            ///< direct data QP toward this replica
  rdma::CompletionQueue* cq = nullptr;      ///< its completion queue
  u64 log_vaddr = 0;
  RKey log_rkey = 0;
  // The replica's atomics region (frontier + ballot + consensus slots), used
  // only by the one-sided backend (see one_sided.hpp for the layout).
  u64 atomic_vaddr = 0;
  RKey atomic_rkey = 0;
  bool excluded = false;
};

class Communicator {
 public:
  /// An op's verdict: ok once f replicas acknowledged it (commit), an error
  /// once it is known lost.
  using VerdictFn = std::function<void(u64 op, Status)>;

  virtual ~Communicator() = default;
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  /// Replicate `entry` (already in the leader's log at `offset`) to the
  /// replicas' logs at the same offset. The verdict callback fires exactly
  /// once for `op`, in any order relative to other ops (the node's
  /// CommitSequencer restores op order) — unless abort_all() drops it first.
  /// Every write of `entry` shares its one buffer.
  virtual void replicate(u64 offset, net::PayloadRef entry, u64 op) = 0;

  virtual bool accelerated() const noexcept = 0;

  /// Slots held now by the largest of the op tables (capacity
  /// introspection).
  virtual std::size_t op_table_capacity() const noexcept = 0;

  /// Stop replicating to a crashed replica.
  virtual void exclude_replica(NodeId id) = 0;

  /// Rebind the replica set (a peer (re)connected, or a re-route replaced
  /// every QP). Indices must follow the node's stable peer order.
  virtual void reset_targets(std::vector<ReplicaTarget> targets) = 0;

  /// Drop everything in flight without a verdict (leader stepping down /
  /// rerouting); the node fails those ops through its sequencer.
  virtual void abort_all() = 0;

 protected:
  Communicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
               VerdictFn verdict)
      : sim_(sim), cpu_(cpu), cal_(cal), verdict_(std::move(verdict)) {}

  sim::Simulator& sim_;
  sim::CpuExecutor& cpu_;
  Calibration cal_;
  VerdictFn verdict_;
};

/// The replica set both direct-connection communicators (Mu, one-sided)
/// share: one data QP per replica, its completions routed back by index.
class DirectCommunicator : public Communicator {
 public:
  bool accelerated() const noexcept override { return false; }
  void exclude_replica(NodeId id) override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;

 protected:
  DirectCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                     std::vector<ReplicaTarget> targets, VerdictFn verdict);

  virtual void on_completion(std::size_t target_index, const rdma::Completion& c) = 0;
  /// Fail every unresolved op once the live replicas can no longer form a
  /// quorum.
  virtual void fail_if_quorum_lost() = 0;

  u32 live_target_count() const noexcept;
  /// Whether target `i` takes posts: still in the set (reset_targets() may
  /// replace the vector while a post sits in the CPU queue), not excluded,
  /// connected.
  bool postable(std::size_t i) const noexcept {
    return i < targets_.size() && !targets_[i].excluded && targets_[i].qp != nullptr;
  }

  std::vector<ReplicaTarget> targets_;

 private:
  void wire_completions();
};

// ---------------------------------------------------------------------------

class MuCommunicator : public DirectCommunicator {
 public:
  MuCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                 u32 f_needed, std::vector<ReplicaTarget> targets, VerdictFn verdict);

  void replicate(u64 offset, net::PayloadRef entry, u64 op) override;
  void abort_all() override;
  std::size_t op_table_capacity() const noexcept override { return pending_.capacity(); }

 private:
  void on_completion(std::size_t target_index, const rdma::Completion& c) override;
  void fail_if_quorum_lost() override;

  u32 f_needed_;
  /// ACK count of each op awaiting its verdict, by op (wr_id). An op leaves
  /// when its verdict is given, so a later ACK finds nothing.
  OpWindow<u32> pending_;
};

// ---------------------------------------------------------------------------

class P4ceCommunicator : public Communicator {
 public:
  /// Callbacks the owning node uses for instrumentation and state changes.
  struct Hooks {
    std::function<void()> on_membership_updated;  ///< switch reconfig done
    /// Replicas may have holes after a NAK-triggered fallback (entries the
    /// switch committed with f other ACKs); the node refills them from its
    /// own log.
    std::function<void()> on_repair_needed;
  };

  P4ceCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                   u32 f_needed, std::vector<ReplicaTarget> targets, VerdictFn verdict,
                   rdma::Nic& nic, Ipv4Addr switch_ip, NodeId self, Hooks hooks);
  ~P4ceCommunicator() override;

  /// Connect to the switch and set the communication group up (§IV-A).
  /// `on_ready(status)` fires once accelerated (or after giving up, at which
  /// point the communicator is live in fallback mode).
  void activate(u64 term, std::function<void(Status)> on_ready);

  /// Start directly in the un-accelerated mode (the switch is known dead,
  /// §III-A "Faulty switch") and probe for re-acceleration periodically.
  void start_fallback(u64 term);

  void replicate(u64 offset, net::PayloadRef entry, u64 op) override;
  bool accelerated() const noexcept override { return state_ == State::kAccelerated; }
  void exclude_replica(NodeId id) override;
  void abort_all() override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;
  std::size_t op_table_capacity() const noexcept override {
    return std::max(accel_pending_.capacity(), fallback_.op_table_capacity());
  }

  /// This node's fallbacks and re-acceleration probes, over every term it
  /// led: consensus.fallbacks{node=<id>} and consensus.reaccelerations{node=<id>}.
  u64 fallback_count() const noexcept { return m_fallbacks_.value(); }
  u64 reaccelerations() const noexcept { return m_reaccelerations_.value(); }

 private:
  enum class State { kInactive, kConnecting, kAccelerated, kFallback };

  void on_switch_completion(const rdma::Completion& c);
  void enter_fallback();
  void probe_reacceleration();
  bool member_set_grew() const;
  /// The replica IPs a group request names: every member not excluded.
  std::vector<Ipv4Addr> live_member_ips() const;

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

  /// The un-accelerated path; it owns the direct CQ callbacks and reports
  /// its verdicts straight to the node.
  MuCommunicator fallback_;
  /// Membership view (ids/ips/exclusion only; QPs live in fallback_). Kept
  /// apart from fallback_'s set: Mu excludes a replica on a broken QP, and
  /// the switch group must not follow that.
  std::vector<ReplicaTarget> targets_snapshot_;
  /// The replica IPs the current/most recent group request named.
  std::vector<Ipv4Addr> group_member_ips_;
  /// Ops in flight on the accelerated path: op -> (offset, entry) so they
  /// can be replayed through the fallback path after a NAK/timeout. The
  /// entry shares its buffer with the posted WQE.
  struct AccelOp {
    u64 offset = 0;
    net::PayloadRef entry;
  };
  OpWindow<AccelOp> accel_pending_;
  sim::PeriodicTimer reaccel_timer_;
  bool update_in_flight_ = false;
};

}  // namespace p4ce::consensus
