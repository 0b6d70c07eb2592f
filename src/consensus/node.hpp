// A consensus node: the Mu decision protocol (leader election by lowest live
// id, heartbeat liveness, RDMA-permission-based single-writer enforcement,
// log replication with f-ACK commit, view change with log recovery) on top
// of a pluggable communicator (direct Mu replication, P4CE in-network
// scatter/gather, or one-sided Paxos over verbs atomics). The node owns the
// commit order: communicators report per-op verdicts in any order and the
// node's CommitSequencer releases them in op order. One Node == one machine
// in the paper's deployment.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "consensus/calibration.hpp"
#include "consensus/communicator.hpp"
#include "consensus/heartbeat.hpp"
#include "consensus/log.hpp"
#include "consensus/mailbox.hpp"
#include "obs/metrics.hpp"
#include "rdma/nic.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace p4ce::consensus {

enum class Mode { kMu, kP4ce, kOneSided };

inline constexpr u32 kMaxNodes = 16;

/// (status, seq): fires when the proposed value is committed (f replica
/// ACKs) or known lost. seq is 0 when the value never reached the log.
using CommitFn = std::function<void(Status, u64 seq)>;

/// What the node needs of an op when the op is released.
struct CommitRecord {
  u64 last_seq = 0;
  u64 n = 0;  ///< values the op carries
  SimTime t_propose = 0;
  CommitFn done;
};

/// Releases ops strictly in op order, no matter which order the (possibly
/// mode-switching) verdicts arrive in: `release(op, status, record)` runs
/// once per op, in order, with the record the op was expected with. Ops are
/// dense, starting at `first`, so they live in an OpWindow.
class CommitSequencer {
 public:
  using ReleaseFn = std::function<void(u64 op, Status, CommitRecord)>;

  CommitSequencer(u64 first, ReleaseFn release) noexcept
      : next_(first), release_(std::move(release)) {}

  void expect(u64 op, CommitRecord record = {});
  void mark_ready(u64 op, Status status);
  u64 next() const noexcept { return next_; }
  std::size_t outstanding() const noexcept { return ops_.size(); }
  /// Slots the op table holds now (capacity introspection).
  std::size_t capacity() const noexcept { return ops_.capacity(); }
  /// Fail everything still outstanding (leader stepping down).
  void flush_all(Status status);

 private:
  void drain();
  struct Op {
    bool ready = false;
    Status status;
    CommitRecord record;
  };
  OpWindow<Op> ops_;
  u64 next_;
  ReleaseFn release_;
};

struct NodeOptions {
  NodeId id = 0;
  u32 domain = 0;  ///< replication domain (consensus group) this node is in
  Mode mode = Mode::kP4ce;
  u64 log_size = 64ull << 20;
  Calibration cal;
  Ipv4Addr switch_ip = 0;  ///< control-plane address (P4CE mode)
};

struct PeerInfo {
  NodeId id = kInvalidNode;
  Ipv4Addr ip = 0;
};

class Node {
 public:
  using CommitFn = consensus::CommitFn;
  using DeliverFn = std::function<void(const LogEntry&)>;

  Node(sim::Simulator& sim, rdma::Nic& nic, rdma::MemoryManager& memory, sim::CpuExecutor& cpu,
       NodeOptions options, std::vector<PeerInfo> peers);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Register listeners, connect the direct mesh, start heartbeats, and run
  /// the initial election.
  void start();

  // --- Client API -----------------------------------------------------------

  /// Propose one value. Leader only (kFailedPrecondition otherwise).
  Status propose(Bytes value, CommitFn done);

  /// Propose a batch of values replicated with a single RDMA write (the
  /// doorbell-batched goodput path). `done` fires once the whole batch
  /// committed.
  Status propose_batch(std::vector<Bytes> values, CommitFn done);

  /// SMR delivery: every node applies committed-log entries in order.
  void set_deliver(DeliverFn fn) { user_deliver_ = std::move(fn); }

  // --- Introspection -----------------------------------------------------------

  NodeId id() const noexcept { return options_.id; }
  Ipv4Addr ip() const noexcept { return nic_.ip(); }
  u64 term() const noexcept { return term_; }
  bool leader_active() const noexcept { return leader_active_; }
  NodeId view_leader() const;  ///< lowest node id this node believes alive
  bool accelerated() const noexcept {
    return communicator_ != nullptr && communicator_->accelerated();
  }
  u64 delivered() const noexcept { return delivered_; }
  u64 last_delivered_seq() const noexcept { return reader_ ? reader_->last_seq() : 0; }
  bool crashed() const noexcept { return crashed_; }

  // --- Failure injection & instrumentation hooks -------------------------------

  /// Crash-stop this machine: CPU halts, NIC stops, heartbeat freezes.
  void crash();

  /// Fires when this node becomes an active leader (term).
  void set_on_leader_active(std::function<void(u64)> fn) { on_leader_active_ = std::move(fn); }
  /// Fires when the switch finished excluding a crashed replica (P4CE).
  void set_on_membership_updated(std::function<void()> fn) {
    on_membership_updated_ = std::move(fn);
  }
  /// Fires when this node detects a dead replica (leader side).
  void set_on_replica_excluded(std::function<void(NodeId)> fn) {
    on_replica_excluded_ = std::move(fn);
  }

  HeartbeatMonitor* heartbeat() noexcept { return heartbeat_.get(); }
  Communicator* communicator() noexcept { return communicator_.get(); }
  const CommitSequencer& sequencer() const noexcept { return sequencer_; }
  /// The one-sided backend's register region (frontier/ballot/slots); tests
  /// inspect and perturb it to drive the slow path.
  rdma::MemoryRegion* atomics_region() noexcept { return atomics_mr_; }

 private:
  struct RemoteMr {
    u64 vaddr = 0;
    RKey rkey = 0;
    u64 length = 0;
  };
  struct Peer {
    NodeId id = kInvalidNode;
    Ipv4Addr ip = 0;
    // Requester-side QPs toward this peer.
    std::unique_ptr<rdma::CompletionQueue> ctrl_cq;
    std::unique_ptr<rdma::CompletionQueue> data_cq;
    rdma::QueuePair* ctrl_qp = nullptr;
    rdma::QueuePair* data_qp = nullptr;
    bool connected = false;
    // Peer's advertised regions (learned during the ctrl handshake).
    RemoteMr hb, mail, log, progress, atomics;
    // Responder-side QPs this peer established toward us.
    rdma::QueuePair* in_ctrl = nullptr;
    rdma::QueuePair* in_data = nullptr;
    u64 mail_stamp = 0;  ///< stamp for messages we send to this peer
  };
  /// A group connection accepted from a switch control plane.
  struct GroupConnection {
    NodeId leader = kInvalidNode;
    u64 term = 0;
    rdma::QueuePair* qp = nullptr;
  };

  // Setup.
  rdma::CompletionQueue& inbound_cq();
  void register_listeners();
  void connect_mesh(std::function<void()> done);
  void connect_peer(Peer& peer, std::function<void(bool)> done);
  Bytes local_advertisement() const;
  void parse_peer_advertisement(Peer& peer, BytesView data);

  // Verbs helpers over the ctrl QPs.
  void issue_read(Peer& peer, const RemoteMr& mr, u64 offset, u32 len,
                  std::function<void(Bytes)> done);
  void send_control(Peer& peer, ControlMessage msg);
  void on_ctrl_completion(Peer& peer, const rdma::Completion& c);

  // Election / view changes.
  void reevaluate_view();
  void start_campaign();
  void retry_campaign();
  void on_control_message(const ControlMessage& msg);
  void apply_permissions(NodeId writer);
  void become_leader();
  void activate_leadership();
  void recover_and_activate();
  void finish_recovery(u64 max_seq, u64 tail_offset);
  void on_peer_died(u32 peer_index);

  // Proposals: the append -> trace -> replicate -> commit chain both
  // propose() and propose_batch() share, run on the leader CPU. `batch`
  // picks the propose span's argument ("batch" count vs "seq").
  void append_and_replicate(std::span<const Bytes> values, bool batch, SimTime t_propose,
                            CommitFn done);
  /// The sequencer released `op`: record the verdict and answer its proposer.
  void finish_commit(u64 op, Status st, CommitRecord record);

  // Log delivery.
  void reconcile_replicas();
  void repair_replicas();
  void on_log_bytes_written();
  void deliver_ready_entries();
  void update_progress();

  // Path failover (switch crash).
  void on_qp_error(NodeId peer_id);
  void begin_reroute();
  void finish_reroute();
  std::vector<ReplicaTarget> build_targets();
  std::unique_ptr<Communicator> make_communicator();
  /// Drop the communicator's in-flight ops and fail their commit callbacks.
  void abort_replication();

  /// This run's consensus series: counters nothing reads per node, so one
  /// bare counter each that every node of the run bumps; gauges per
  /// replication domain (the sampler turns those into time series,
  /// e.g. the commit index over a failover).
  struct Metrics {
    Metrics(obs::MetricsRegistry& registry, u32 domain);
    obs::Counter& proposals;
    obs::Counter& commits;
    obs::Counter& commit_failures;
    LatencyHistogram& commit_latency;
    obs::Counter& elections;
    obs::Counter& view_changes;
    obs::Counter& exclusions;
    obs::Counter& repairs;
    obs::Counter& reroutes;
    obs::Gauge& commit_index;
    obs::Gauge& term;
    obs::Gauge& leader_active;
  };

  sim::Simulator& sim_;
  Metrics m_;
  rdma::Nic& nic_;
  rdma::MemoryManager& memory_;
  sim::CpuExecutor& cpu_;
  NodeOptions options_;
  const rdma::QpConfig qp_config_;  ///< shared by every QP this node creates
  std::vector<Peer> peers_;

  // Exposed memory regions.
  rdma::MemoryRegion* hb_mr_ = nullptr;
  rdma::MemoryRegion* mail_mr_ = nullptr;
  rdma::MemoryRegion* log_mr_ = nullptr;
  rdma::MemoryRegion* progress_mr_ = nullptr;
  rdma::MemoryRegion* atomics_mr_ = nullptr;  ///< one-sided backend registers

  std::unique_ptr<HeartbeatMonitor> heartbeat_;
  std::unique_ptr<MailboxReceiver> mailbox_;
  std::unique_ptr<LogWriter> writer_;
  std::unique_ptr<LogReader> reader_;
  std::unique_ptr<Communicator> communicator_;
  std::unique_ptr<rdma::CompletionQueue> inbound_cq_;
  std::vector<GroupConnection> group_connections_;

  // Pending read completions on ctrl QPs, by wr_id.
  std::map<u64, std::function<void(Bytes)>> pending_reads_;
  u64 next_wr_id_ = 1;

  // Election state.
  u64 term_ = 0;
  NodeId granted_to_ = kInvalidNode;
  bool campaigning_ = false;
  u64 campaign_term_ = 0;
  std::set<NodeId> grants_;
  bool leader_active_ = false;
  bool mesh_ready_ = false;
  std::unique_ptr<sim::PeriodicTimer> reconcile_timer_;
  std::vector<bool> prev_alive_;
  sim::EventHandle campaign_retry_;

  // Proposer state.
  u64 next_seq_ = 1;    ///< next log entry sequence number
  u64 next_op_ = 1;     ///< next communicator operation id
  /// Releases ops, with their CommitRecords, to finish_commit() in op
  /// order. Ops are dense per node and every one is expected here, so the
  /// sequencer never needs re-basing.
  CommitSequencer sequencer_;
  u64 delivered_ = 0;
  bool deliver_scheduled_ = false;

  // Failure handling.
  bool crashed_ = false;
  bool rerouting_ = false;
  bool switch_dead_hint_ = false;  ///< set after re-routing around the switch
  std::set<NodeId> recent_qp_errors_;
  sim::EventHandle qp_error_window_;

  DeliverFn user_deliver_;
  std::function<void(u64)> on_leader_active_;
  std::function<void()> on_membership_updated_;
  std::function<void(NodeId)> on_replica_excluded_;
};

}  // namespace p4ce::consensus
