#include "consensus/node.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "consensus/one_sided.hpp"
#include "obs/context.hpp"
#include "p4ce/tables.hpp"

namespace p4ce::consensus {

namespace {
/// Direct-mesh data-plane service (the ctrl service id is p4::kServiceDirect).
constexpr u16 kServiceDirectData = 0x14;

/// Every QP a node creates, requester or responder. No retransmissions:
/// "once a timeout is detected" the node fails over instead (§III-A).
rdma::QpConfig node_qp_config(const Calibration& cal) noexcept {
  rdma::QpConfig config;
  config.max_retries = 0;
  config.max_send_wr = cal.max_outstanding;
  config.mtu = cal.mtu;
  return config;
}

Duration memcpy_cost(u64 bytes, double gbps) noexcept {
  return static_cast<Duration>(static_cast<double>(bytes) / gbps);
}

/// The log bytes from ring offset `from` up to `to` as (offset, length)
/// ranges: one, or two when the span wraps past the end of the region.
std::vector<std::pair<u64, u64>> ring_span(u64 from, u64 to, u64 size) {
  if (from < to) return {{from, to - from}};
  std::vector<std::pair<u64, u64>> ranges;
  if (from < size) ranges.emplace_back(from, size - from);
  ranges.emplace_back(0, to);
  return ranges;
}

}  // namespace

// ---------------------------------------------------------------------------
// CommitSequencer
// ---------------------------------------------------------------------------

void CommitSequencer::expect(u64 op, CommitRecord record) {
  ops_.insert(op, Op{false, Status::ok(), std::move(record)});
}

void CommitSequencer::mark_ready(u64 op, Status status) {
  Op* found = ops_.find(op);
  if (found == nullptr) return;
  found->ready = true;
  found->status = std::move(status);
  drain();
}

void CommitSequencer::drain() {
  for (Op* op = ops_.find(next_); op != nullptr && op->ready; op = ops_.find(next_)) {
    Status status = std::move(op->status);
    CommitRecord record = std::move(op->record);
    ops_.erase(next_);
    const u64 released = next_++;
    release_(released, std::move(status), std::move(record));
  }
}

void CommitSequencer::flush_all(Status status) {
  // Deliver failures in order; release_ may re-enter, so detach first.
  for (auto& [op, entry] : ops_.take_all()) {
    next_ = std::max(next_, op + 1);
    release_(op, status, std::move(entry.record));
  }
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

Node::Metrics::Metrics(obs::MetricsRegistry& registry, u32 domain)
    : proposals(registry.counter("consensus.proposals")),
      commits(registry.counter("consensus.commits")),
      commit_failures(registry.counter("consensus.commit_failures")),
      commit_latency(registry.histogram("consensus.commit_latency_ns")),
      elections(registry.counter("consensus.elections")),
      view_changes(registry.counter("consensus.view_changes")),
      exclusions(registry.counter("consensus.replica_exclusions")),
      repairs(registry.counter("consensus.log_repairs")),
      reroutes(registry.counter("consensus.reroutes")),
      commit_index(registry.gauge(obs::MetricsRegistry::label(
          "consensus.commit_index", {{"domain", std::to_string(domain)}}))),
      term(registry.gauge(
          obs::MetricsRegistry::label("consensus.term", {{"domain", std::to_string(domain)}}))),
      leader_active(registry.gauge(obs::MetricsRegistry::label(
          "consensus.leader_active", {{"domain", std::to_string(domain)}}))) {}

Node::Node(sim::Simulator& sim, rdma::Nic& nic, rdma::MemoryManager& memory,
           sim::CpuExecutor& cpu, NodeOptions options, std::vector<PeerInfo> peers)
    : sim_(sim),
      m_(sim.obs().metrics, options.domain),
      nic_(nic),
      memory_(memory),
      cpu_(cpu),
      options_(options),
      qp_config_(node_qp_config(options.cal)),
      sequencer_(obs::trace_key(options.domain, next_op_),
                 [this](u64 op, Status st, CommitRecord record) {
                   finish_commit(op, std::move(st), std::move(record));
                 }) {
  using rdma::Access;
  hb_mr_ = &memory_.register_region(8, rdma::kAccessRemoteRead);
  mail_mr_ = &memory_.register_region(kMaxNodes * kMailboxSlotBytes,
                                      rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite);
  log_mr_ = &memory_.register_region(options_.log_size,
                                     rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite);
  progress_mr_ = &memory_.register_region(Progress::kWireSize, rdma::kAccessRemoteRead);
  // Always registered (and advertised) so the wire handshake is identical in
  // every mode; only the one-sided backend ever touches it.
  atomics_mr_ = &memory_.register_region(
      one_sided_mr_bytes(),
      rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite | rdma::kAccessRemoteAtomic);

  peers_.reserve(peers.size());
  for (const auto& info : peers) {
    Peer peer;
    peer.id = info.id;
    peer.ip = info.ip;
    peer.ctrl_cq = std::make_unique<rdma::CompletionQueue>();
    peer.data_cq = std::make_unique<rdma::CompletionQueue>();
    peers_.push_back(std::move(peer));
  }
  prev_alive_.assign(peers_.size(), true);

  writer_ = std::make_unique<LogWriter>(*log_mr_);
  reader_ = std::make_unique<LogReader>(*log_mr_, [this](const LogEntry& entry) {
    ++delivered_;
    if (user_deliver_) user_deliver_(entry);
  });

  mailbox_ = std::make_unique<MailboxReceiver>(
      *mail_mr_, kMaxNodes, [this](const ControlMessage& m) { on_control_message(m); });

  heartbeat_ = std::make_unique<HeartbeatMonitor>(
      sim_, *hb_mr_, static_cast<u32>(peers_.size()), options_.cal,
      [this](u32 peer_index, std::function<void(u64)> done) {
        Peer& peer = peers_[peer_index];
        if (peer.ctrl_qp == nullptr || !peer.connected) return;
        issue_read(peer, peer.hb, 0, 8, [done = std::move(done)](Bytes bytes) {
          if (bytes.size() < 8) return;
          u64 value;
          std::memcpy(&value, bytes.data(), 8);
          done(value);
        });
      },
      [this] { reevaluate_view(); });

  // Replicas consume their log as the DMA writes land.
  log_mr_->set_write_hook([this](u64, u64) { on_log_bytes_written(); });
}

Node::~Node() = default;

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

Bytes Node::local_advertisement() const {
  Bytes out;
  ByteWriter w(out);
  w.u32be(options_.id);
  for (const rdma::MemoryRegion* mr : {hb_mr_, mail_mr_, log_mr_, progress_mr_, atomics_mr_}) {
    w.u64be(mr->vaddr());
    w.u64be(mr->length());
    w.u32be(mr->rkey());
  }
  return out;
}

void Node::parse_peer_advertisement(Peer& peer, BytesView data) {
  ByteReader r(data);
  r.u32be();  // peer id, already known
  for (RemoteMr* mr : {&peer.hb, &peer.mail, &peer.log, &peer.progress, &peer.atomics}) {
    mr->vaddr = r.u64be();
    mr->length = r.u64be();
    mr->rkey = r.u32be();
  }
}

void Node::register_listeners() {
  auto& cm = nic_.cm();

  // Direct mesh: per peer, a control connection (heartbeats, mailboxes,
  // recovery reads) and a data connection (log writes). Writes on the data
  // connection are only honoured from the machine we currently consider the
  // leader.
  const auto accept_direct = [this](rdma::QueuePair* Peer::*slot) {
    return [this, slot](const rdma::CmMessage& msg, Ipv4Addr) {
      rdma::CmAgent::AcceptDecision decision;
      ByteReader r(msg.private_data);
      const NodeId from = r.u32be();
      auto peer = std::find_if(peers_.begin(), peers_.end(),
                               [&](const Peer& p) { return p.id == from; });
      if (peer == peers_.end() || crashed_) return decision;  // reject
      rdma::QueuePair*& qp = *peer.*slot;
      if (qp != nullptr) nic_.destroy_qp(qp->qpn());  // stale QP from before a re-route
      qp = &nic_.create_qp(inbound_cq(), qp_config_);
      if (slot == &Peer::in_data) qp->set_allow_remote_write(from == granted_to_);
      decision.accept = true;
      decision.qp = qp;
      decision.private_data = local_advertisement();
      return decision;
    };
  };
  cm.listen(p4::kServiceDirect, accept_direct(&Peer::in_ctrl));
  cm.listen(kServiceDirectData, accept_direct(&Peer::in_data));

  // Group connections from a P4CE switch control plane (§IV-A): accept only
  // if the group's leader is the machine we granted write permission to.
  cm.listen(p4::kServiceReplicaLog, [this](const rdma::CmMessage& msg, Ipv4Addr) {
    rdma::CmAgent::AcceptDecision decision;
    const auto join = p4::ReplicaJoinData::decode(msg.private_data);
    if (!join || crashed_) return decision;
    if (join->leader_node_id != granted_to_ || join->term < term_) {
      decision.reject_reason = 9;
      return decision;
    }
    auto& qp = nic_.create_qp(inbound_cq(), qp_config_);
    qp.set_allow_remote_write(true);
    group_connections_.push_back(GroupConnection{join->leader_node_id, join->term, &qp});
    decision.accept = true;
    decision.qp = &qp;
    decision.private_data =
        p4::MemoryAdvertisement{log_mr_->vaddr(), log_mr_->length(), log_mr_->rkey()}.encode();
    return decision;
  });
}

rdma::CompletionQueue& Node::inbound_cq() {
  // Responder-side QPs never post work, so one silent CQ serves them all.
  if (inbound_cq_ == nullptr) inbound_cq_ = std::make_unique<rdma::CompletionQueue>();
  return *inbound_cq_;
}

void Node::start() {
  register_listeners();
  // Give every node a chance to register its listeners before the first
  // ConnectRequests fly.
  sim_.schedule(1'000, [this] {
    connect_mesh([this] {
      mesh_ready_ = true;
      heartbeat_->start();
      sim_.schedule(10'000, [this] { reevaluate_view(); });
    });
  });
}

void Node::connect_mesh(std::function<void()> done) {
  // The mesh is ready as soon as a majority of the cluster is connected
  // (that is all elections and commits ever need); connections to slower or
  // dead peers keep resolving in the background instead of holding the
  // fail-over path hostage to their CM timeouts.
  struct MeshState {
    u32 remaining = 0;
    u32 connected = 0;
    std::function<void()> done;
  };
  auto state = std::make_shared<MeshState>();
  state->done = std::move(done);
  const u32 majority = (static_cast<u32>(peers_.size()) + 1) / 2 + 1;
  auto maybe_finish = [state, majority](bool all_resolved) {
    if (!state->done) return;
    if (state->connected + 1 >= majority || all_resolved) {
      auto finished = std::move(state->done);
      state->done = nullptr;
      finished();
    }
  };
  for (auto& peer : peers_) {
    ++state->remaining;
    connect_peer(peer, [state, maybe_finish](bool ok) {
      state->connected += ok ? 1 : 0;
      maybe_finish(--state->remaining == 0);
    });
  }
  if (state->remaining == 0) maybe_finish(true);
}

void Node::connect_peer(Peer& peer, std::function<void(bool)> done) {
  // Tear down any previous connection state (reconnect after an error or a
  // re-route); completion callbacks are rewired when the communicator's
  // targets are rebuilt.
  if (peer.ctrl_qp != nullptr) nic_.destroy_qp(peer.ctrl_qp->qpn());
  if (peer.data_qp != nullptr) nic_.destroy_qp(peer.data_qp->qpn());
  peer.ctrl_qp = nullptr;
  peer.data_qp = nullptr;
  peer.connected = false;
  peer.ctrl_cq = std::make_unique<rdma::CompletionQueue>();
  peer.data_cq = std::make_unique<rdma::CompletionQueue>();

  peer.ctrl_qp = &nic_.create_qp(*peer.ctrl_cq, qp_config_);
  peer.ctrl_qp->set_error_callback([this, id = peer.id](rdma::WcStatus) { on_qp_error(id); });
  peer.ctrl_cq->set_callback(
      [this, &peer](const rdma::Completion& c) { on_ctrl_completion(peer, c); });

  Bytes hello;
  ByteWriter w(hello);
  w.u32be(options_.id);

  nic_.cm().connect(
      peer.ip, p4::kServiceDirect, *peer.ctrl_qp, hello,
      [this, &peer, done](StatusOr<rdma::CmAgent::ConnectResult> result) {
        if (!result.is_ok()) {
          done(false);
          return;
        }
        parse_peer_advertisement(peer, result.value().private_data);

        peer.data_qp = &nic_.create_qp(*peer.data_cq, qp_config_);
        peer.data_qp->set_error_callback(
            [this, id = peer.id](rdma::WcStatus) { on_qp_error(id); });

        Bytes hello2;
        ByteWriter w2(hello2);
        w2.u32be(options_.id);
        nic_.cm().connect(peer.ip, kServiceDirectData, *peer.data_qp, hello2,
                          [this, &peer, done](StatusOr<rdma::CmAgent::ConnectResult> r2) {
                            peer.connected = r2.is_ok();
                            done(r2.is_ok());
                            // A peer that connected after we already lead
                            // (it re-routed slower than we did) must be
                            // folded into the replica set and refilled.
                            if (peer.connected && leader_active_ &&
                                communicator_ != nullptr) {
                              communicator_->reset_targets(build_targets());
                              repair_replicas();
                            }
                          });
      });
}

// ---------------------------------------------------------------------------
// Verbs helpers
// ---------------------------------------------------------------------------

void Node::issue_read(Peer& peer, const RemoteMr& mr, u64 offset, u32 len,
                      std::function<void(Bytes)> done) {
  if (peer.ctrl_qp == nullptr) return;
  const u64 wr_id = next_wr_id_++;
  pending_reads_[wr_id] = std::move(done);
  const Status st = peer.ctrl_qp->post_read(wr_id, mr.vaddr + offset, mr.rkey, len);
  if (!st.is_ok()) pending_reads_.erase(wr_id);
}

void Node::send_control(Peer& peer, ControlMessage msg) {
  if (peer.ctrl_qp == nullptr || !peer.connected) return;
  msg.from = options_.id;
  msg.stamp = ++peer.mail_stamp;
  const u64 slot = MailboxReceiver::slot_offset(options_.id);
  std::ignore = peer.ctrl_qp->post_write(next_wr_id_++, msg.encode(), peer.mail.vaddr + slot,
                                         peer.mail.rkey, /*signaled=*/false);
}

void Node::on_ctrl_completion(Peer&, const rdma::Completion& c) {
  auto it = pending_reads_.find(c.wr_id);
  if (it == pending_reads_.end()) return;
  auto done = std::move(it->second);
  pending_reads_.erase(it);
  if (c.status == rdma::WcStatus::kSuccess) done(std::move(const_cast<Bytes&>(c.read_data)));
}

// ---------------------------------------------------------------------------
// View / election
// ---------------------------------------------------------------------------

NodeId Node::view_leader() const {
  NodeId lowest = options_.id;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (heartbeat_->peer_alive(static_cast<u32>(i))) lowest = std::min(lowest, peers_[i].id);
  }
  return lowest;
}

void Node::reevaluate_view() {
  if (!mesh_ready_ || crashed_ || rerouting_) return;

  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool alive = heartbeat_->peer_alive(static_cast<u32>(i));
    if (prev_alive_[i] && !alive) on_peer_died(static_cast<u32>(i));
    prev_alive_[i] = alive;
  }

  const NodeId lowest = view_leader();
  if (lowest == options_.id) {
    if (!leader_active_ && !campaigning_) start_campaign();
  } else if (campaigning_) {
    campaigning_ = false;
    campaign_retry_.cancel();
  }
}

void Node::on_peer_died(u32 peer_index) {
  const NodeId dead = peers_[peer_index].id;
  m_.exclusions.inc();
  sim_.obs().recorder.trigger("replica_excluded", sim_.now(), "node", dead);
  if (leader_active_ && communicator_ != nullptr) {
    // "the leader simply excludes the replica" (Mu) / asks the switch CP to
    // reprogram the group (P4CE, +40 ms).
    communicator_->exclude_replica(dead);
    if (on_replica_excluded_) on_replica_excluded_(dead);
  }
}

void Node::start_campaign() {
  m_.elections.inc();
  campaigning_ = true;
  campaign_term_ = term_ + 1;
  // Term 1 is the boot election; anything later means a view was lost.
  if (campaign_term_ > 1) {
    sim_.obs().recorder.trigger("term_change", sim_.now(), "term", campaign_term_);
  }
  grants_.clear();
  granted_to_ = options_.id;  // a candidate trivially grants itself
  apply_permissions(options_.id);
  retry_campaign();
}

void Node::retry_campaign() {
  if (!campaigning_ || crashed_) return;
  ControlMessage request;
  request.kind = ControlKind::kPermissionRequest;
  request.term = campaign_term_;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (heartbeat_->peer_alive(static_cast<u32>(i))) send_control(peers_[i], request);
  }
  campaign_retry_ = sim_.schedule(2'000'000, [this] { retry_campaign(); });
}

void Node::on_control_message(const ControlMessage& msg) {
  if (crashed_) return;
  switch (msg.kind) {
    case ControlKind::kPermissionRequest: {
      auto peer = std::find_if(peers_.begin(), peers_.end(),
                               [&](const Peer& p) { return p.id == msg.from; });
      if (peer == peers_.end()) return;
      if (msg.term == term_ && granted_to_ == msg.from) {
        // Duplicate request (candidate retry): re-send the grant.
        ControlMessage grant;
        grant.kind = ControlKind::kPermissionGrant;
        grant.term = msg.term;
        grant.arg = reader_->last_seq();
        send_control(*peer, grant);
        return;
      }
      if (msg.term <= term_ || msg.from != view_leader()) {
        ControlMessage deny;
        deny.kind = ControlKind::kPermissionDenied;
        deny.term = term_;
        send_control(*peer, deny);
        return;
      }
      term_ = msg.term;
      m_.term.set(static_cast<double>(term_));
      if (leader_active_) {
        leader_active_ = false;
        m_.leader_active.set(0);
        abort_replication();
      }
      // "Once a replica has chosen another machine as the current leader, it
      // reconfigures its RDMA permissions to exclusively allow the
      // newly-chosen leader to write to its log" (§III). The switch takes
      // the measured 0.8 ms.
      const NodeId candidate = msg.from;
      const u64 granted_term = msg.term;
      sim_.schedule(options_.cal.permission_change_delay, [this, candidate, granted_term] {
        if (crashed_ || term_ != granted_term) return;
        apply_permissions(candidate);
        auto peer = std::find_if(peers_.begin(), peers_.end(),
                                 [&](const Peer& p) { return p.id == candidate; });
        if (peer == peers_.end()) return;
        ControlMessage grant;
        grant.kind = ControlKind::kPermissionGrant;
        grant.term = granted_term;
        grant.arg = reader_->last_seq();
        send_control(*peer, grant);
      });
      return;
    }
    case ControlKind::kPermissionGrant: {
      if (campaigning_ && msg.term == campaign_term_) {
        grants_.insert(msg.from);
        const u32 cluster = static_cast<u32>(peers_.size()) + 1;
        const u32 majority = cluster / 2 + 1;
        if (static_cast<u32>(grants_.size()) + 1 >= majority) become_leader();
        return;
      }
      // Late grant: a replica granted us after the campaign already reached
      // a majority (possibly while leadership activation — e.g. the 40 ms
      // switch setup — is still in flight, or after its first write NAK'd
      // and broke the QP). Admit it: record the grant, rebuild the replica
      // set, reconnect if needed, refill its log.
      if (msg.term != term_) return;
      auto peer = std::find_if(peers_.begin(), peers_.end(),
                               [&](const Peer& p) { return p.id == msg.from; });
      if (peer == peers_.end()) return;
      grants_.insert(msg.from);
      const bool healthy = peer->connected && peer->data_qp != nullptr &&
                           peer->data_qp->state() == rdma::QpState::kRts;
      if (healthy) {
        if (communicator_) communicator_->reset_targets(build_targets());
        if (leader_active_) repair_replicas();
      } else {
        peer->connected = false;
        if (communicator_) communicator_->reset_targets(build_targets());
        connect_peer(*peer, [](bool) {});  // success path re-includes + repairs
      }
      return;
    }
    case ControlKind::kPermissionDenied:
    case ControlKind::kNone:
      return;
  }
}

void Node::apply_permissions(NodeId writer) {
  granted_to_ = writer;
  for (auto& peer : peers_) {
    if (peer.in_data != nullptr) peer.in_data->set_allow_remote_write(peer.id == writer);
  }
  for (auto& group : group_connections_) {
    if (group.qp != nullptr) group.qp->set_allow_remote_write(group.leader == writer);
  }
}

void Node::become_leader() {
  campaigning_ = false;
  campaign_retry_.cancel();
  term_ = campaign_term_;
  // Brief grace period: the other live replicas' grants were scheduled at
  // (almost) the same instant as the ones that formed the majority; waiting
  // a moment collects them so the switch group is built complete instead of
  // being reconfigured right after.
  sim_.schedule(100'000, [this, term = term_] {
    if (crashed_ || term != term_ || leader_active_ || communicator_ != nullptr) return;
    activate_leadership();
  });
}

void Node::activate_leadership() {
  communicator_ = make_communicator();

  if (options_.mode == Mode::kP4ce && !switch_dead_hint_) {
    // Configure the communication group in the switch before accepting
    // proposals; the paper counts this 40 ms reconfiguration as part of the
    // leader fail-over time (§V-E "Crashed leader").
    auto* comm = static_cast<P4ceCommunicator*>(communicator_.get());
    comm->activate(term_, [this](Status) { recover_and_activate(); });
  } else if (options_.mode == Mode::kP4ce) {
    // The switch is known dead (we just re-routed around it): resume
    // un-accelerated immediately and let the communicator probe for
    // re-acceleration in the background (§III-A).
    auto* comm = static_cast<P4ceCommunicator*>(communicator_.get());
    comm->start_fallback(term_);
    recover_and_activate();
  } else if (options_.mode == Mode::kOneSided) {
    // Ballot takeover: fence the old leader out of every replica's atomic
    // registers and adopt the highest slot frontier, then recover the log.
    // Even if the takeover cannot fence a quorum right now we proceed —
    // proposals simply fail kUnavailable until enough replicas return,
    // matching the P4CE activate semantics above.
    auto* comm = static_cast<OneSidedCommunicator*>(communicator_.get());
    comm->takeover(term_, [this](Status) { recover_and_activate(); });
  } else {
    recover_and_activate();
  }
}

std::vector<ReplicaTarget> Node::build_targets() {
  std::vector<ReplicaTarget> targets;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& peer = peers_[i];
    ReplicaTarget target;
    target.id = peer.id;
    target.ip = peer.ip;
    target.qp = peer.data_qp;
    target.cq = peer.data_cq.get();
    target.log_vaddr = peer.log.vaddr;
    target.log_rkey = peer.log.rkey;
    target.atomic_vaddr = peer.atomics.vaddr;
    target.atomic_rkey = peer.atomics.rkey;
    // Writing to a replica that has not granted us this term would only
    // draw a permission NAK; it joins once its (possibly late) grant lands.
    target.excluded = !heartbeat_->peer_alive(static_cast<u32>(i)) || !peer.connected ||
                      !grants_.contains(peer.id);
    targets.push_back(std::move(target));
  }
  return targets;
}

std::unique_ptr<Communicator> Node::make_communicator() {
  const u32 cluster = static_cast<u32>(peers_.size()) + 1;
  const u32 f_needed = cluster / 2;  // majority minus the leader itself
  auto verdict = [this](u64 op, Status st) { sequencer_.mark_ready(op, std::move(st)); };
  if (options_.mode == Mode::kP4ce) {
    P4ceCommunicator::Hooks hooks;
    hooks.on_membership_updated = [this] {
      if (on_membership_updated_) on_membership_updated_();
    };
    hooks.on_repair_needed = [this] {
      // Run after the fallback replay has been issued (same CPU queue).
      sim_.schedule(10'000, [this] { repair_replicas(); });
    };
    return std::make_unique<P4ceCommunicator>(sim_, cpu_, options_.cal, f_needed,
                                              build_targets(), verdict, nic_,
                                              options_.switch_ip, options_.id, std::move(hooks));
  }
  if (options_.mode == Mode::kOneSided) {
    return std::make_unique<OneSidedCommunicator>(sim_, cpu_, options_.cal, cluster,
                                                  options_.id, build_targets(), verdict);
  }
  return std::make_unique<MuCommunicator>(sim_, cpu_, options_.cal, f_needed, build_targets(),
                                          verdict);
}

void Node::abort_replication() {
  if (communicator_) communicator_->abort_all();
  sequencer_.flush_all(error(StatusCode::kAborted, "replication aborted"));
}

void Node::recover_and_activate() {
  // View change: adopt the longest log among the granting replicas before
  // accepting new proposals (Mu's view-change procedure).
  struct RecoveryState {
    u32 awaiting = 0;
    u64 best_seq = 0;
    u64 best_tail = 0;
    Peer* best_peer = nullptr;
  };
  auto state = std::make_shared<RecoveryState>();
  state->best_seq = reader_->last_seq();
  state->best_tail = reader_->cursor();

  std::vector<Peer*> sources;
  for (auto& peer : peers_) {
    if (grants_.contains(peer.id) && peer.connected) sources.push_back(&peer);
  }
  if (sources.empty()) {
    finish_recovery(state->best_seq, state->best_tail);
    return;
  }
  state->awaiting = static_cast<u32>(sources.size());
  for (Peer* peer : sources) {
    issue_read(*peer, peer->progress, 0, Progress::kWireSize, [this, state, peer](Bytes bytes) {
      const Progress progress = Progress::parse(bytes);
      if (progress.last_seq > state->best_seq) {
        state->best_seq = progress.last_seq;
        state->best_tail = progress.tail_offset;
        state->best_peer = peer;
      }
      if (--state->awaiting != 0) return;

      if (state->best_peer == nullptr) {
        finish_recovery(state->best_seq, state->best_tail);  // our log is the longest
        return;
      }
      // Fetch the missing log suffix from the most advanced replica: from
      // our read cursor to its tail, in two reads when the suffix wraps past
      // the end of the ring.
      const auto ranges = ring_span(reader_->cursor(), state->best_tail, log_mr_->length());
      auto reads_left = std::make_shared<std::size_t>(ranges.size());
      for (const auto& [offset, len] : ranges) {
        issue_read(*state->best_peer, state->best_peer->log, offset, static_cast<u32>(len),
                   [this, state, reads_left, offset, len](Bytes bytes) {
                     if (bytes.size() == len) {
                       std::memcpy(log_mr_->bytes() + offset, bytes.data(), len);
                     }
                     if (--*reads_left != 0) return;
                     deliver_ready_entries();
                     finish_recovery(state->best_seq, state->best_tail);
                   });
      }
    });
  }
}

void Node::finish_recovery(u64 max_seq, u64 tail_offset) {
  m_.view_changes.inc();
  // Append after the longest log: ours if it holds `max_seq`, else the
  // adopted tail (offsets alone cannot tell across a wrap).
  writer_->set_cursor(reader_->last_seq() >= max_seq ? reader_->cursor() : tail_offset);
  next_seq_ = std::max(next_seq_, max_seq + 1);
  next_seq_ = std::max(next_seq_, reader_->last_seq() + 1);
  leader_active_ = true;
  m_.term.set(static_cast<double>(term_));
  m_.leader_active.set(1);
  if (term_ > 1) sim_.obs().recorder.trigger("leader_failover", sim_.now(), "term", term_);
  // The adopted log may extend past what some (or all) replicas hold — e.g.
  // this leader's own un-acknowledged suffix from before a crash. Refill
  // them now, or their readers would wait at the hole forever.
  repair_replicas();
  // And keep reconciling: a replica whose connection breaks later (say a
  // write racing its permission switch draws a fatal NAK) is re-admitted.
  if (reconcile_timer_ == nullptr) {
    reconcile_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, options_.cal.leader_reconcile_period, [this] { reconcile_replicas(); });
  }
  reconcile_timer_->start();
  if (on_leader_active_) on_leader_active_(term_);
}

void Node::reconcile_replicas() {
  if (!leader_active_ || crashed_ || rerouting_) {
    if (reconcile_timer_ != nullptr && !leader_active_) reconcile_timer_->stop();
    return;
  }
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& peer = peers_[i];
    if (!heartbeat_->peer_alive(static_cast<u32>(i))) continue;
    const bool healthy = peer.connected && peer.data_qp != nullptr &&
                         peer.data_qp->state() == rdma::QpState::kRts &&
                         peer.ctrl_qp != nullptr &&
                         peer.ctrl_qp->state() == rdma::QpState::kRts;
    if (!healthy) {
      peer.connected = false;
      if (communicator_) communicator_->reset_targets(build_targets());
      connect_peer(peer, [](bool) {});  // success path re-includes + repairs
      continue;
    }
    // An alive, connected peer that never granted this term (it missed the
    // campaign — e.g. it was still re-routing) is chased until it does; its
    // grant triggers re-inclusion and a log refill. Until then it receives
    // no writes (they would only draw permission NAKs).
    if (!grants_.contains(peer.id)) {
      ControlMessage request;
      request.kind = ControlKind::kPermissionRequest;
      request.term = term_;
      send_control(peer, request);
    }
  }
}

// ---------------------------------------------------------------------------
// Proposals & delivery
// ---------------------------------------------------------------------------

Status Node::propose(Bytes value, CommitFn done) {
  if (!leader_active_) {
    return error(StatusCode::kFailedPrecondition, "not the active leader");
  }
  m_.proposals.inc();
  const SimTime t_propose = sim_.now();
  const Duration cost = options_.cal.cpu_decision +
                        memcpy_cost(value.size(), options_.cal.memcpy_gbps);
  cpu_.execute(cost, [this, t_propose, value = std::move(value),
                      done = std::move(done)]() mutable {
    append_and_replicate({&value, 1}, /*batch=*/false, t_propose, std::move(done));
  });
  return Status::ok();
}

Status Node::propose_batch(std::vector<Bytes> values, CommitFn done) {
  if (!leader_active_) {
    return error(StatusCode::kFailedPrecondition, "not the active leader");
  }
  if (values.empty()) return error(StatusCode::kInvalidArgument, "empty batch");
  m_.proposals.inc();
  const SimTime t_propose = sim_.now();
  u64 total = 0;
  for (const auto& v : values) total += v.size();
  const Duration cost = options_.cal.cpu_decision +
                        static_cast<Duration>(values.size()) * options_.cal.cpu_batch_value +
                        memcpy_cost(total, options_.cal.memcpy_gbps);
  cpu_.execute(cost, [this, t_propose, values = std::move(values),
                      done = std::move(done)]() mutable {
    append_and_replicate(values, /*batch=*/true, t_propose, std::move(done));
  });
  return Status::ok();
}

void Node::append_and_replicate(std::span<const Bytes> values, bool batch, SimTime t_propose,
                                CommitFn done) {
  if (!leader_active_) {
    if (done) done(error(StatusCode::kAborted, "leadership lost"), 0);
    return;
  }
  // Seqs are consumed only once they are in the log: a gap would stall
  // every reader, the leader's own included.
  const u64 first_seq = next_seq_;
  auto append = writer_->append(first_seq, term_, values);
  if (!append.is_ok()) {
    if (done) done(append.status(), 0);
    return;
  }
  const u64 n = values.size();
  next_seq_ += n;
  deliver_ready_entries();  // the leader consumes its own log immediately
  const u64 op = obs::trace_key(options_.domain, next_op_++);
  const u64 last_seq = next_seq_ - 1;
  if (sim_.obs().tracer.is_enabled()) {
    auto& tracer = sim_.obs().tracer;
    tracer.begin_round(op, t_propose);
    tracer.span(op, "propose", t_propose, sim_.now(), batch ? "batch" : "seq",
                batch ? n : first_seq);
    tracer.mark_propose_done(op, sim_.now());
  }
  sequencer_.expect(op, CommitRecord{last_seq, n, t_propose, std::move(done)});
  communicator_->replicate(append.value().offset, std::move(append.value().entry), op);
}

void Node::finish_commit(u64 op, Status st, CommitRecord record) {
  if (st.is_ok()) {
    m_.commits.inc(record.n);
    m_.commit_index.set(static_cast<double>(record.last_seq));
  } else {
    m_.commit_failures.inc();
  }
  m_.commit_latency.record(sim_.now() - record.t_propose);
  if (sim_.obs().tracer.is_enabled()) sim_.obs().tracer.end_round(op, sim_.now(), st.is_ok());
  if (record.done) record.done(std::move(st), record.last_seq);
}

void Node::repair_replicas() {
  // After a NAK-triggered fallback a replica may have a hole: entries the
  // switch committed with f *other* ACKs never reached it, and the shared
  // PSN stream means transport-level go-back-N cannot resend them. Refill
  // each lagging replica's log from our own over the direct connection
  // (the "more in depth diagnosis" of §III-A).
  if (!leader_active_ || crashed_ || rerouting_) return;
  m_.repairs.inc();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& peer = peers_[i];
    if (!peer.connected || peer.data_qp == nullptr || !grants_.contains(peer.id) ||
        !heartbeat_->peer_alive(static_cast<u32>(i))) {
      continue;
    }
    issue_read(peer, peer.progress, 0, Progress::kWireSize, [this, &peer](Bytes bytes) {
      const Progress progress = Progress::parse(bytes);
      if (progress.last_seq >= reader_->last_seq()) return;  // up to date
      if (progress.tail_offset > log_mr_->length()) return;
      // The peer's log ends at its tail; ours at our writer's cursor, on the
      // same lap or, when we wrapped since, on the next one.
      const auto ranges = ring_span(progress.tail_offset, writer_->cursor(), log_mr_->length());
      // Refill in MTU-friendly chunks, unsignaled (ACKed by the transport,
      // invisible to the communicator's op tracking). A full send window of
      // them (16 x 16 KiB) leaves the uplink in about 23 us at 100 Gb/s:
      // the other QPs' requests queued behind it must arrive within the
      // 131 us RDMA timeout, as the node's QPs do not retry.
      constexpr u64 kChunk = 16 * 1024;
      for (const auto& [start, len] : ranges) {
        for (u64 offset = start; offset < start + len; offset += kChunk) {
          const u64 n = std::min(kChunk, start + len - offset);
          Bytes chunk(log_mr_->bytes() + offset, log_mr_->bytes() + offset + n);
          std::ignore = peer.data_qp->post_write(0, std::move(chunk),
                                                 peer.log.vaddr + offset, peer.log.rkey,
                                                 /*signaled=*/false);
        }
      }
    });
  }
}

void Node::on_log_bytes_written() {
  // DMA landed in the log region; schedule consumption on the host CPU (the
  // replica's asynchronous log polling).
  if (deliver_scheduled_ || crashed_) return;
  deliver_scheduled_ = true;
  cpu_.execute(options_.cal.cpu_deliver, [this] {
    deliver_scheduled_ = false;
    deliver_ready_entries();
  });
}

void Node::deliver_ready_entries() {
  if (reader_->poll() > 0) update_progress();
}

void Node::update_progress() {
  Progress progress;
  progress.last_seq = reader_->last_seq();
  progress.last_term = reader_->last_term();
  progress.tail_offset = reader_->cursor();
  progress.store(*progress_mr_);
}

// ---------------------------------------------------------------------------
// Failures
// ---------------------------------------------------------------------------

void Node::crash() {
  crashed_ = true;
  if (leader_active_) m_.leader_active.set(0);
  leader_active_ = false;
  campaigning_ = false;
  campaign_retry_.cancel();
  heartbeat_->stop();
  cpu_.halt();
  nic_.power_off();
}

void Node::on_qp_error(NodeId peer_id) {
  if (crashed_ || rerouting_) return;
  recent_qp_errors_.insert(peer_id);
  if (qp_error_window_.pending()) return;
  // Distinguish "one peer died" (its QPs alone error; heartbeats handle it)
  // from "the switch died" (QPs toward several peers error together and the
  // whole fabric is unreachable, §III-A "Faulty switch").
  qp_error_window_ = sim_.schedule(150'000, [this] {
    // A dead switch errors the QPs toward *every* reachable peer at once;
    // individually-crashed peers are, by now, already declared dead by the
    // heartbeat monitor. So: path failure iff at least two QPs errored and
    // every peer still considered alive is among them.
    bool covers_alive = true;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (heartbeat_->peer_alive(static_cast<u32>(i)) &&
          !recent_qp_errors_.contains(peers_[i].id)) {
        covers_alive = false;
        break;
      }
    }
    const bool path_failure = recent_qp_errors_.size() >= 2 && covers_alive;
    recent_qp_errors_.clear();
    if (path_failure) begin_reroute();
  });
}

void Node::begin_reroute() {
  if (rerouting_ || crashed_) return;
  m_.reroutes.inc();
  sim_.obs().recorder.trigger("reroute", sim_.now(), "node", options_.id);
  rerouting_ = true;
  switch_dead_hint_ = true;
  // Silence on the dead path said nothing about the peers: treat everyone
  // as alive again and let heartbeats over the backup route re-confirm.
  heartbeat_->reset_all_alive();
  heartbeat_->set_frozen(true);
  heartbeat_->stop();
  if (leader_active_) m_.leader_active.set(0);
  leader_active_ = false;
  abort_replication();
  communicator_.reset();  // its QPs are about to be destroyed
  // The old data QPs live until connect_peer() replaces them, and their
  // completions must not reach the communicator just freed.
  for (auto& peer : peers_) peer.data_cq->set_callback(nullptr);
  // Fail over to the backup route, then re-establish every connection; the
  // paper measures this reconnection at ~60 ms (§V-E "Crashed switch").
  nic_.set_active_path(1);
  sim_.schedule(options_.cal.fallback_reconnect_delay, [this] {
    pending_reads_.clear();
    connect_mesh([this] { finish_reroute(); });  // connect_peer rebuilds QPs
  });
}

void Node::finish_reroute() {
  rerouting_ = false;
  heartbeat_->set_frozen(false);
  heartbeat_->start();
  std::fill(prev_alive_.begin(), prev_alive_.end(), true);
  reevaluate_view();
}

}  // namespace p4ce::consensus
