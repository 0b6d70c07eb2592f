#include "consensus/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/context.hpp"

namespace p4ce::consensus {

// ---------------------------------------------------------------------------
// DirectCommunicator
// ---------------------------------------------------------------------------

DirectCommunicator::DirectCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu,
                                       const Calibration& cal,
                                       std::vector<ReplicaTarget> targets, VerdictFn verdict)
    : Communicator(sim, cpu, cal, std::move(verdict)), targets_(std::move(targets)) {
  wire_completions();
}

void DirectCommunicator::wire_completions() {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].cq == nullptr) continue;
    targets_[i].cq->set_callback(
        [this, i](const rdma::Completion& c) { on_completion(i, c); });
  }
}

void DirectCommunicator::reset_targets(std::vector<ReplicaTarget> targets) {
  targets_ = std::move(targets);
  wire_completions();
}

u32 DirectCommunicator::live_target_count() const noexcept {
  u32 n = 0;
  for (const auto& t : targets_) n += t.excluded ? 0 : 1;
  return n;
}

void DirectCommunicator::exclude_replica(NodeId id) {
  for (auto& target : targets_) {
    if (target.id == id) target.excluded = true;
  }
  fail_if_quorum_lost();
}

// ---------------------------------------------------------------------------
// MuCommunicator
// ---------------------------------------------------------------------------

MuCommunicator::MuCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu,
                               const Calibration& cal, u32 f_needed,
                               std::vector<ReplicaTarget> targets, VerdictFn verdict)
    : DirectCommunicator(sim, cpu, cal, std::move(targets), std::move(verdict)),
      f_needed_(f_needed) {}

void MuCommunicator::replicate(u64 offset, net::PayloadRef entry, u64 seq) {
  if (live_target_count() < f_needed_) {
    verdict_(seq, error(StatusCode::kUnavailable, "quorum of replicas lost"));
    return;
  }
  pending_.insert(seq, 0);
  // The leader posts one write per replica; each post costs CPU time — this
  // serialization is exactly why "the leader divides its own network
  // capacity by the number of replicas" also costs it CPU (§I, §V-C).
  // Targets are addressed by index: reset_targets() may replace the vector
  // while these posts sit in the CPU queue.
  const SimTime t_replicate = sim_.now();
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!postable(i)) continue;
    cpu_.execute(cal_.cpu_post_wr, [this, i, offset, payload = entry, seq,
                                    t_replicate]() mutable {
      if (!postable(i)) return;
      ReplicaTarget& target = targets_[i];
      if (sim_.obs().tracer.is_enabled()) {
        // One CPU-serialized post per replica: this per-target span is the
        // leader-capacity division the P4CE scatter removes (§V-C). The last
        // post wins the attribution mark (mark_post_done keeps the max).
        sim_.obs().tracer.span(seq, "leader.post", t_replicate, sim_.now(), "replica",
                                   target.id);
        sim_.obs().tracer.mark_post_done(seq, sim_.now());
      }
      const Status st = target.qp->post_write(seq, std::move(payload),
                                              target.log_vaddr + offset, target.log_rkey);
      if (!st.is_ok()) {
        target.excluded = true;
        fail_if_quorum_lost();
      }
    });
  }
}

void MuCommunicator::on_completion(std::size_t target_index, const rdma::Completion& c) {
  ReplicaTarget& target = targets_[target_index];
  if (c.status != rdma::WcStatus::kSuccess) {
    // This replica's connection is broken (crash / revoked permission).
    if (!target.excluded) {
      target.excluded = true;
      fail_if_quorum_lost();
    }
    return;
  }
  if (sim_.obs().tracer.is_enabled()) {
    sim_.obs().tracer.on_ack(c.wr_id, sim_.now(), target.id);
  }
  // Aggregating the replicas' ACKs on the leader CPU: the work the P4CE
  // switch absorbs in-network.
  cpu_.execute(cal_.cpu_completion + cal_.cpu_mu_track, [this, seq = c.wr_id] {
    u32* acks = pending_.find(seq);
    if (acks == nullptr || ++*acks < f_needed_) return;
    pending_.erase(seq);
    if (sim_.obs().tracer.is_enabled()) sim_.obs().tracer.on_quorum(seq, sim_.now());
    verdict_(seq, Status::ok());
  });
}

void MuCommunicator::fail_if_quorum_lost() {
  if (live_target_count() >= f_needed_) return;
  pending_.for_each_in_order([this](u64 seq, u32) {
    pending_.erase(seq);
    verdict_(seq, error(StatusCode::kUnavailable, "quorum of replicas lost"));
  });
}

void MuCommunicator::abort_all() { pending_.clear(); }

// ---------------------------------------------------------------------------
// P4ceCommunicator
// ---------------------------------------------------------------------------

P4ceCommunicator::P4ceCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu,
                                   const Calibration& cal, u32 f_needed,
                                   std::vector<ReplicaTarget> targets, VerdictFn verdict,
                                   rdma::Nic& nic, Ipv4Addr switch_ip, NodeId self,
                                   Hooks hooks)
    : Communicator(sim, cpu, cal, verdict),
      nic_(nic),
      switch_ip_(switch_ip),
      self_(self),
      hooks_(std::move(hooks)),
      m_fallbacks_(sim.obs().metrics.counter("consensus.fallbacks",
                                              {{"node", std::to_string(self)}})),
      m_reaccelerations_(sim.obs().metrics.counter("consensus.reaccelerations",
                                                    {{"node", std::to_string(self)}})),
      fallback_(sim, cpu, cal, f_needed, targets, std::move(verdict)),
      targets_snapshot_(std::move(targets)),
      reaccel_timer_(sim, cal.reacceleration_period, [this] { probe_reacceleration(); }) {
  switch_cq_.set_callback([this](const rdma::Completion& c) { on_switch_completion(c); });
}

P4ceCommunicator::~P4ceCommunicator() {
  // The switch QP (owned by the NIC) holds a reference to our switch_cq_
  // member; destroy it with us or a late retransmit timeout completes into
  // freed memory (seen as a chaos-test use-after-free on re-route).
  if (switch_qp_ != nullptr) nic_.destroy_qp(switch_qp_->qpn());
}

void P4ceCommunicator::start_fallback(u64 term) {
  term_ = term;
  state_ = State::kFallback;
  reaccel_timer_.start();
}

void P4ceCommunicator::activate(u64 term, std::function<void(Status)> on_ready) {
  term_ = term;
  state_ = State::kConnecting;

  // A fresh QP per activation: a previous one may be in the error state
  // after a NAK or a switch crash.
  if (switch_qp_ != nullptr) nic_.destroy_qp(switch_qp_->qpn());
  rdma::QpConfig qp_config;
  qp_config.max_send_wr = cal_.max_outstanding;
  qp_config.mtu = cal_.mtu;
  switch_qp_ = &nic_.create_qp(switch_cq_, qp_config);

  p4::GroupRequestData request;
  request.leader_node_id = self_;
  request.term = term;
  request.replica_ips = live_member_ips();
  group_member_ips_ = request.replica_ips;

  // The reply only comes after the control plane reprogrammed the data
  // plane (~40 ms), so the handshake timeout must comfortably exceed that.
  constexpr Duration kGroupSetupTimeout = 500'000'000;
  nic_.cm().connect(
      switch_ip_, p4::kServiceP4ceGroup, *switch_qp_, request.encode(),
      [this, alive = std::weak_ptr<char>(alive_),
       on_ready = std::move(on_ready)](StatusOr<rdma::CmAgent::ConnectResult> result) {
        if (alive.expired()) return;  // communicator destroyed mid-handshake
        if (!result.is_ok()) {
          enter_fallback();
          if (on_ready) on_ready(result.status());
          return;
        }
        const auto advert = p4::MemoryAdvertisement::decode(result.value().private_data);
        if (!advert) {
          enter_fallback();
          if (on_ready) on_ready(error(StatusCode::kInternal, "bad switch advertisement"));
          return;
        }
        virtual_base_ = advert->vaddr;  // zero by construction (§IV-A)
        virtual_rkey_ = advert->rkey;
        bcast_qpn_ = result.value().remote_qpn;
        // Any NAK a replica raises is forwarded unconditionally by the
        // switch; one is enough to revert to un-accelerated mode (§III-A).
        switch_qp_->set_nak_callback([this](rdma::NakCode, Psn) {
          if (state_ == State::kAccelerated) enter_fallback();
        });
        state_ = State::kAccelerated;
        reaccel_timer_.stop();
        if (on_ready) on_ready(Status::ok());
        // Members may have joined while the control plane was configuring
        // this group (a straggler's late grant): rebuild with the full set.
        if (member_set_grew()) {
          enter_fallback();
          activate(term_, nullptr);
        } else if (hooks_.on_repair_needed) {
          hooks_.on_repair_needed();
        }
      },
      kGroupSetupTimeout);
}

void P4ceCommunicator::replicate(u64 offset, net::PayloadRef entry, u64 seq) {
  if (state_ != State::kAccelerated) {
    // Un-accelerated path: identical to Mu.
    fallback_.replicate(offset, std::move(entry), seq);
    return;
  }

  // The WQE and the replay record share one buffer.
  accel_pending_.insert(seq, AccelOp{offset, entry});
  const SimTime t_replicate = sim_.now();
  // One post, one future completion: the whole point of the design.
  cpu_.execute(cal_.cpu_post_wr, [this, offset, payload = std::move(entry), seq,
                                  t_replicate]() mutable {
    if (state_ != State::kAccelerated || switch_qp_ == nullptr) return;  // replayed by fallback
    if (sim_.obs().tracer.is_enabled()) {
      auto& tracer = sim_.obs().tracer;
      // Register the PSN range this write will occupy so the switch-side
      // hooks can attribute its scatter/gather packets to this instance.
      const u32 npkts =
          payload.empty() ? 1 : (static_cast<u32>(payload.size()) + cal_.mtu - 1) / cal_.mtu;
      tracer.map_wire(seq, switch_qp_->planned_next_psn(), npkts, bcast_qpn_);
      tracer.span(seq, "leader.post", t_replicate, sim_.now());
      tracer.mark_post_done(seq, sim_.now());
    }
    const Status st =
        switch_qp_->post_write(seq, std::move(payload), virtual_base_ + offset, virtual_rkey_);
    if (!st.is_ok()) enter_fallback();
  });
}

void P4ceCommunicator::on_switch_completion(const rdma::Completion& c) {
  if (c.status != rdma::WcStatus::kSuccess) {
    // NAK forwarded by the switch, or retry-exceeded because the switch
    // died: "P4CE then reverts to un-accelerated communications" (§III-A).
    if (state_ == State::kAccelerated) enter_fallback();
    return;
  }
  const SimTime t_ack = sim_.now();
  if (sim_.obs().tracer.is_enabled()) {
    sim_.obs().tracer.instant(c.wr_id, "leader.ack_rx", t_ack);
    sim_.obs().tracer.mark_ack_rx(c.wr_id, t_ack);
  }
  cpu_.execute(cal_.cpu_completion, [this, seq = c.wr_id, t_ack] {
    if (!accel_pending_.erase(seq)) return;
    if (sim_.obs().tracer.is_enabled()) {
      sim_.obs().tracer.span(seq, "commit.cpu", t_ack, sim_.now());
    }
    verdict_(seq, Status::ok());
  });
}

void P4ceCommunicator::enter_fallback() {
  if (state_ == State::kFallback) return;
  state_ = State::kFallback;
  m_fallbacks_.inc();
  sim_.obs().recorder.trigger("fallback", sim_.now(), "node", self_);
  // Silence the accelerated QP: everything outstanding is replayed over the
  // direct connections below, and its go-back-N must not keep fighting.
  if (switch_qp_ != nullptr) switch_qp_->reset();

  // Replay everything that was in flight on the accelerated path through
  // the direct connections (idempotent: same bytes at the same offsets).
  for (auto& [seq, op] : accel_pending_.take_all()) {
    fallback_.replicate(op.offset, std::move(op.entry), seq);
  }
  // Entries committed with f *other* ACKs may be missing at the replica
  // that NAK'd; the node refills them from its log over the direct path.
  if (hooks_.on_repair_needed) hooks_.on_repair_needed();
  // "the leader then periodically tries to re-establish a connection
  // through the switch to enable in-network replication again" (§III).
  reaccel_timer_.start();
}

void P4ceCommunicator::probe_reacceleration() {
  if (state_ != State::kFallback) return;
  m_reaccelerations_.inc();
  activate(term_, nullptr);
}

void P4ceCommunicator::exclude_replica(NodeId id) {
  fallback_.exclude_replica(id);
  for (auto& target : targets_snapshot_) {
    if (target.id == id) target.excluded = true;
  }
  if (state_ != State::kAccelerated || update_in_flight_) return;

  // Ask the control plane to reprogram the multicast group without the dead
  // member; the data plane keeps running meanwhile and the reconfiguration
  // costs the measured 40 ms (§V-E "Crashed replica").
  update_in_flight_ = true;
  p4::GroupRequestData request;
  request.leader_node_id = self_;
  request.term = term_;
  request.replica_ips = live_member_ips();
  nic_.cm().connect_virtual(
      switch_ip_, p4::kServiceP4ceUpdate, bcast_qpn_, 0, request.encode(),
      [this, alive = std::weak_ptr<char>(alive_)](StatusOr<rdma::CmAgent::ConnectResult> result) {
        if (alive.expired()) return;  // communicator destroyed mid-update
        update_in_flight_ = false;
        if (!result.is_ok() && state_ == State::kAccelerated) {
          enter_fallback();
          return;
        }
        if (hooks_.on_membership_updated) hooks_.on_membership_updated();
      },
      /*timeout=*/100'000'000);
}

void P4ceCommunicator::abort_all() {
  accel_pending_.clear();
  fallback_.abort_all();
}

std::vector<Ipv4Addr> P4ceCommunicator::live_member_ips() const {
  std::vector<Ipv4Addr> ips;
  for (const auto& target : targets_snapshot_) {
    if (!target.excluded) ips.push_back(target.ip);
  }
  return ips;
}

bool P4ceCommunicator::member_set_grew() const {
  // Only *growth* needs a fresh group: the data plane cannot gain a member
  // without a new control-plane setup. Shrinking goes through the cheap
  // membership-update service instead (exclude_replica).
  for (const auto& target : targets_snapshot_) {
    if (target.excluded) continue;
    if (std::find(group_member_ips_.begin(), group_member_ips_.end(), target.ip) ==
        group_member_ips_.end()) {
      return true;
    }
  }
  return false;
}

void P4ceCommunicator::reset_targets(std::vector<ReplicaTarget> targets) {
  fallback_.reset_targets(targets);
  targets_snapshot_ = std::move(targets);
  // A replica joining the set while accelerated needs the switch group
  // rebuilt (the data plane cannot add a member without a control-plane
  // reconfiguration). Drain in-flight work through the direct path first.
  if (state_ == State::kAccelerated && member_set_grew()) {
    enter_fallback();
    activate(term_, nullptr);
  }
}

}  // namespace p4ce::consensus
