#include "consensus/one_sided.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "obs/context.hpp"

namespace p4ce::consensus {

namespace {
constexpr u32 kMaxSlowRetries = 8;
}  // namespace

OneSidedCommunicator::OneSidedCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu,
                                           const Calibration& cal, u32 cluster_size,
                                           NodeId self, std::vector<ReplicaTarget> targets,
                                           VerdictFn verdict)
    : DirectCommunicator(sim, cpu, cal, std::move(targets), std::move(verdict)),
      fast_needed_remote_(one_sided_fast_quorum(cluster_size) - 1),
      classic_needed_remote_(one_sided_classic_quorum(cluster_size) - 1),
      self_(self),
      m_fast_commits_(sim.obs().metrics.counter("consensus.one_sided.fast_commits",
                                                 {{"node", std::to_string(self)}})),
      m_slow_commits_(sim.obs().metrics.counter("consensus.one_sided.slow_commits",
                                                 {{"node", std::to_string(self)}})),
      m_slot_conflicts_(sim.obs().metrics.counter("consensus.one_sided.slot_conflicts")) {}

// ---------------------------------------------------------------------------
// Takeover (ballot fence + frontier adoption)
// ---------------------------------------------------------------------------

void OneSidedCommunicator::takeover(u64 term, std::function<void(Status)> on_ready) {
  ballot_ = one_sided_ballot(term, self_);
  Takeover& tk = takeover_.emplace();
  tk.on_ready = std::move(on_ready);

  if (classic_needed_remote_ == 0) {
    // Single-machine cluster: nothing to fence.
    reserved_ = kOneSidedFrontierBatch;
    ops_issued_ = 0;
    if (tk.on_ready) {
      auto ready = std::move(tk.on_ready);
      tk.on_ready = nullptr;
      ready(Status::ok());
    }
    return;
  }

  u32 posted = 0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!postable(i)) continue;
    ++posted;
    cpu_.execute(cal_.cpu_post_wr, [this, i, ballot = ballot_] {
      if (ballot != ballot_) return;  // a newer takeover replaced this one
      if (!postable(i)) {
        takeover_chain_failed();
        return;
      }
      ReplicaTarget& target = targets_[i];
      // Read the ballot register: an FAA of zero is an atomic read whose
      // response travels the same completion path as every other atomic.
      const u64 wr = next_wr_++;
      wr_ctx_.insert(wr, WrCtx{0, Phase::kTkRead, i, 0});
      const Status st = target.qp->post_faa(wr, target.atomic_vaddr + kOneSidedBallotOffset,
                                            target.atomic_rkey, 0);
      if (!st.is_ok()) {
        wr_ctx_.erase(wr);
        takeover_chain_failed();
      }
    });
  }
  tk.posted = posted;
  if (posted < classic_needed_remote_ && tk.on_ready) {
    auto ready = std::move(tk.on_ready);
    tk.on_ready = nullptr;
    ready(error(StatusCode::kUnavailable, "quorum of replicas unreachable"));
  }
}

void OneSidedCommunicator::takeover_chain_failed() {
  if (!takeover_) return;
  ++takeover_->failed;
  takeover_check(*takeover_);
}

void OneSidedCommunicator::takeover_check(Takeover& tk) {
  if (tk.fenced >= classic_needed_remote_) {
    if (tk.reserving) return;
    // The fence holds on a classic quorum: adopt the highest frontier and
    // reserve the first slot batch.
    tk.reserving = true;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      if (!postable(i)) continue;
      ReplicaTarget& t = targets_[i];
      const u64 wr = next_wr_++;
      wr_ctx_.insert(wr, WrCtx{0, Phase::kTkFrontier, i, 0});
      const Status st = t.qp->post_faa(wr, t.atomic_vaddr + kOneSidedFrontierOffset,
                                       t.atomic_rkey, kOneSidedFrontierBatch);
      if (!st.is_ok()) {
        wr_ctx_.erase(wr);
        continue;
      }
      ++tk.frontier_posted;
    }
    takeover_frontier_check(tk);
    return;
  }
  const u32 resolved = tk.fenced + tk.superseded + tk.failed;
  if (tk.fenced + (tk.posted - resolved) < classic_needed_remote_ && tk.on_ready) {
    auto ready = std::move(tk.on_ready);
    tk.on_ready = nullptr;
    ready(tk.superseded > 0
              ? error(StatusCode::kAborted, "takeover superseded by a higher ballot")
              : error(StatusCode::kUnavailable, "quorum of replicas unreachable"));
  }
}

void OneSidedCommunicator::takeover_frontier_check(Takeover& tk) {
  if (tk.frontier_done >= classic_needed_remote_) {
    if (tk.on_ready) {
      reserved_ = kOneSidedFrontierBatch;
      ops_issued_ = 0;
      auto ready = std::move(tk.on_ready);
      tk.on_ready = nullptr;
      ready(Status::ok());
    }
    return;
  }
  const u32 outstanding = tk.frontier_posted - tk.frontier_done - tk.frontier_failed;
  if (tk.frontier_done + outstanding < classic_needed_remote_ && tk.on_ready) {
    auto ready = std::move(tk.on_ready);
    tk.on_ready = nullptr;
    ready(error(StatusCode::kUnavailable, "quorum of replicas unreachable"));
  }
}

void OneSidedCommunicator::handle_takeover(const WrCtx& ctx, std::size_t target_index,
                                           u64 original) {
  if (!takeover_) return;
  Takeover& tk = *takeover_;
  ReplicaTarget& target = targets_[target_index];

  if (ctx.phase == Phase::kTkFrontier) {
    // The FAA original is the slot high-water mark at this replica; the new
    // regime starts past the highest one a quorum reports.
    frontier_base_ = std::max(frontier_base_, original);
    ++tk.frontier_done;
    takeover_frontier_check(tk);
    return;
  }

  // kTkRead / kTkRaise: one fencing chain per replica, re-posting until the
  // register holds a ballot >= ours.
  if (ctx.phase == Phase::kTkRaise && original == ctx.expected) {
    ++tk.fenced;  // our CAS installed the ballot
  } else if (original == ballot_) {
    ++tk.fenced;  // already ours (a retried or repeated takeover)
  } else if (original > ballot_) {
    ++tk.superseded;  // a higher ballot beat us to this replica
  } else if (postable(target_index)) {
    if (ctx.phase == Phase::kTkRead) {
      // Raise the register from the value we just read.
      const u64 wr = next_wr_++;
      wr_ctx_.insert(wr, WrCtx{0, Phase::kTkRaise, target_index, ballot_});
      const Status st = target.qp->post_cas(wr, target.atomic_vaddr + kOneSidedBallotOffset,
                                            target.atomic_rkey, original, ballot_);
      if (st.is_ok()) return;  // chain continues at the CAS completion
      wr_ctx_.erase(wr);
      ++tk.failed;
    } else {
      // Lost the raise race: re-read and try again.
      const u64 wr = next_wr_++;
      wr_ctx_.insert(wr, WrCtx{0, Phase::kTkRead, target_index, 0});
      const Status st = target.qp->post_faa(wr, target.atomic_vaddr + kOneSidedBallotOffset,
                                            target.atomic_rkey, 0);
      if (st.is_ok()) return;
      wr_ctx_.erase(wr);
      ++tk.failed;
    }
  } else {
    ++tk.failed;
  }
  takeover_check(tk);
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

void OneSidedCommunicator::reserve_frontier_batch() {
  // Optimistic batch reservation: bump every replica's frontier register so
  // a future leader's takeover FAA observes how far this regime got. A
  // competing regime racing the same slots surfaces as CAS conflicts, which
  // the slow path absorbs.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!postable(i)) continue;
    cpu_.execute(cal_.cpu_post_wr, [this, i] {
      if (!postable(i)) return;
      ReplicaTarget& target = targets_[i];
      const u64 wr = next_wr_++;
      wr_ctx_.insert(wr, WrCtx{0, Phase::kFrontier, i, 0});
      const Status st = target.qp->post_faa(wr, target.atomic_vaddr + kOneSidedFrontierOffset,
                                            target.atomic_rkey, kOneSidedFrontierBatch);
      if (!st.is_ok()) wr_ctx_.erase(wr);
    });
  }
  reserved_ += kOneSidedFrontierBatch;
}

void OneSidedCommunicator::replicate(u64 offset, net::PayloadRef entry, u64 seq) {
  if (live_target_count() < classic_needed_remote_) {
    verdict_(seq, error(StatusCode::kUnavailable, "quorum of replicas lost"));
    return;
  }

  if (ops_issued_ >= reserved_) reserve_frontier_batch();
  const u64 slot = (frontier_base_ + ops_issued_) % kOneSidedSlotCount;
  ++ops_issued_;
  // A lap of the ring is far longer than the ops the send queues hold
  // (Calibration::max_outstanding WRs per replica), so the op that last
  // used this slot has resolved and `prev` is its word.
  assert(ops_.size() < kOneSidedSlotCount);

  OpState op;
  op.slot_off = kOneSidedSlotsOffset + slot * 8;
  op.word = one_sided_slot_word(ballot_, obs::trace_op(seq));
  op.prev = std::exchange(slot_words_[slot], op.word);
  // With too few live replicas for a fast quorum, go straight to the
  // classic-quorum two-phase path.
  op.slow = live_target_count() < fast_needed_remote_;
  OpState& inserted = ops_.insert(seq, op);

  // Every per-replica write shares the one buffer.
  const SimTime t_replicate = sim_.now();
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!postable(i)) continue;
    ++inserted.inflight;
    // Two work requests per replica — the entry write and the slot atomic —
    // is the CPU price of one-sidedness: double Mu's posting cost, where
    // P4CE pays for a single post in total.
    cpu_.execute(2 * cal_.cpu_post_wr,
                 [this, i, offset, payload = entry, seq, t_replicate]() mutable {
      OpState* op = ops_.find(seq);
      if (op == nullptr) return;
      if (!postable(i)) {
        --op->inflight;
        check_op_verdict(seq);
        maybe_erase(seq);
        return;
      }
      ReplicaTarget& target = targets_[i];
      if (sim_.obs().tracer.is_enabled()) {
        sim_.obs().tracer.span(seq, "leader.post", t_replicate, sim_.now(), "replica",
                                   target.id);
        sim_.obs().tracer.mark_post_done(seq, sim_.now());
      }
      // Unsignaled entry write, then the signaled slot atomic on the same
      // QP: RC ordering makes the atomic's response prove the write landed,
      // so the fast path is one broadcast-CAS round trip.
      Status st = target.qp->post_write(0, std::move(payload), target.log_vaddr + offset,
                                        target.log_rkey, /*signaled=*/false);
      if (st.is_ok()) {
        const u64 wr = next_wr_++;
        if (!op->slow) {
          wr_ctx_.insert(wr, WrCtx{seq, Phase::kFastCas, i, op->prev});
          st = target.qp->post_cas(wr, target.atomic_vaddr + op->slot_off, target.atomic_rkey,
                                   /*compare=*/op->prev, op->word);
        } else {
          wr_ctx_.insert(wr, WrCtx{seq, Phase::kPrepare, i, 0});
          st = target.qp->post_masked_cas(wr, target.atomic_vaddr + op->slot_off,
                                          target.atomic_rkey, /*compare=*/0,
                                          /*swap=*/ballot_ << 48,
                                          /*compare_mask=*/0,
                                          /*swap_mask=*/~kOneSidedStampMask);
        }
        if (!st.is_ok()) wr_ctx_.erase(wr);
      }
      if (!st.is_ok()) {
        target.excluded = true;
        --op->inflight;
        fail_if_quorum_lost();
        check_op_verdict(seq);
        maybe_erase(seq);
      }
    });
  }
  if (inserted.inflight == 0) {
    // No remote posts at all (single-machine cluster).
    check_op_verdict(seq);
    maybe_erase(seq);
  }
}

// ---------------------------------------------------------------------------
// Completions
// ---------------------------------------------------------------------------

void OneSidedCommunicator::on_completion(std::size_t target_index, const rdma::Completion& c) {
  ReplicaTarget& target = targets_[target_index];
  if (c.status != rdma::WcStatus::kSuccess) {
    if (!target.excluded) {
      target.excluded = true;
      fail_if_quorum_lost();
    }
    const WrCtx* found = wr_ctx_.find(c.wr_id);
    if (found == nullptr) return;
    const WrCtx ctx = *found;
    wr_ctx_.erase(c.wr_id);
    if (ctx.seq != 0) {
      if (OpState* op = ops_.find(ctx.seq)) {
        --op->inflight;
        check_op_verdict(ctx.seq);
        maybe_erase(ctx.seq);
      }
    } else if (ctx.phase == Phase::kTkRead || ctx.phase == Phase::kTkRaise) {
      takeover_chain_failed();
    } else if (ctx.phase == Phase::kTkFrontier) {
      if (takeover_) {
        ++takeover_->frontier_failed;
        takeover_frontier_check(*takeover_);
      }
    }
    return;
  }

  const WrCtx* found = wr_ctx_.find(c.wr_id);
  if (found == nullptr) return;  // stale (aborted / already resolved)
  const WrCtx ctx = *found;
  wr_ctx_.erase(c.wr_id);

  const SimTime t_ack = sim_.now();
  if (ctx.seq != 0 && sim_.obs().tracer.is_enabled()) {
    sim_.obs().tracer.on_ack(ctx.seq, t_ack, target.id);
  }
  // Tracking the atomic's outcome is leader-CPU work, like Mu's per-ACK
  // aggregation (the work the P4CE switch absorbs in-network).
  cpu_.execute(cal_.cpu_completion + cal_.cpu_mu_track,
               [this, ctx, target_index, original = c.atomic_original, t_ack] {
    last_ack_ = t_ack;
    if (ctx.seq == 0) {
      handle_takeover(ctx, target_index, original);
      return;
    }
    OpState* op = ops_.find(ctx.seq);
    if (op == nullptr) return;
    --op->inflight;
    switch (ctx.phase) {
      case Phase::kFastCas:
        handle_fast(*op, ctx, original);
        break;
      case Phase::kPrepare:
        handle_prepare(*op, ctx.seq, target_index, original);
        break;
      case Phase::kAccept:
        handle_accept(*op, ctx.seq, target_index, ctx, original);
        break;
      default:
        break;
    }
    check_op_verdict(ctx.seq);
    maybe_erase(ctx.seq);
  });
}

void OneSidedCommunicator::handle_fast(OpState& op, const WrCtx& ctx, u64 original) {
  if (original == ctx.expected || original == op.word) {
    ++op.fast_acks;
  } else {
    // The slot held a word other than the one we last installed there (a
    // competing ballot, a stale regime's word, or a lap this replica
    // missed): this replica's fast vote is lost.
    ++op.fast_rejects;
    m_slot_conflicts_.inc();
  }
}

void OneSidedCommunicator::enter_slow_path(OpState& op, u64 seq) {
  op.slow = true;
  // By seq from here on: a failed post fails ops through verdict_, which may
  // re-enter and move the table.
  for (std::size_t i = 0; i < targets_.size(); ++i) post_prepare(seq, i);
}

void OneSidedCommunicator::post_prepare(u64 seq, std::size_t target_index) {
  OpState* found = ops_.find(seq);
  if (found == nullptr || !postable(target_index)) return;
  OpState& op = *found;
  ReplicaTarget& target = targets_[target_index];
  ++op.inflight;
  const u64 wr = next_wr_++;
  wr_ctx_.insert(wr, WrCtx{seq, Phase::kPrepare, target_index, 0});
  // Unconditionally raise the slot's ballot bits while preserving the
  // stamp; the original tells us what (if anything) the slot held.
  const Status st = target.qp->post_masked_cas(
      wr, target.atomic_vaddr + op.slot_off, target.atomic_rkey, /*compare=*/0,
      /*swap=*/ballot_ << 48, /*compare_mask=*/0, /*swap_mask=*/~kOneSidedStampMask);
  if (!st.is_ok()) {
    wr_ctx_.erase(wr);
    --op.inflight;
    target.excluded = true;
    fail_if_quorum_lost();
  }
}

void OneSidedCommunicator::handle_prepare(OpState& op, u64 seq, std::size_t target_index,
                                          u64 original) {
  const u64 orig_ballot = original >> 48;
  if (orig_ballot > ballot_) {
    // A higher ballot fenced this slot: a newer leader exists; stop.
    ++op.aborts;
    return;
  }
  if (!postable(target_index)) return;
  ReplicaTarget& target = targets_[target_index];
  // Accept: install our stamp, expecting exactly what prepare left behind
  // (our ballot over the preserved stamp).
  ++op.inflight;
  const u64 expected = one_sided_slot_word(ballot_, original);
  const u64 wr = next_wr_++;
  wr_ctx_.insert(wr, WrCtx{seq, Phase::kAccept, target_index, expected});
  const Status st = target.qp->post_cas(wr, target.atomic_vaddr + op.slot_off,
                                        target.atomic_rkey, expected, op.word);
  if (!st.is_ok()) {
    wr_ctx_.erase(wr);
    --op.inflight;
    target.excluded = true;
    fail_if_quorum_lost();
  }
}

void OneSidedCommunicator::handle_accept(OpState& op, u64 seq, std::size_t target_index,
                                         const WrCtx& ctx, u64 original) {
  if (original == ctx.expected || original == op.word) {
    ++op.accepts;
    return;
  }
  // The slot changed between prepare and accept (a competing writer): retry
  // the two-phase exchange a bounded number of times.
  if (++op.retries <= kMaxSlowRetries) {
    post_prepare(seq, target_index);
  } else {
    ++op.aborts;
  }
}

void OneSidedCommunicator::commit(OpState& op, u64 seq, bool fast) {
  op.resolved = true;
  (fast ? m_fast_commits_ : m_slow_commits_).inc();
  if (sim_.obs().tracer.is_enabled()) {
    auto& tracer = sim_.obs().tracer;
    tracer.on_quorum(seq, last_ack_);
    tracer.mark_ack_rx(seq, last_ack_);
    tracer.span(seq, "commit.cpu", last_ack_, sim_.now());
  }
  verdict_(seq, Status::ok());
}

void OneSidedCommunicator::check_op_verdict(u64 seq) {
  OpState* op = ops_.find(seq);
  if (op == nullptr || op->resolved) return;
  if (!op->slow) {
    if (op->fast_acks >= fast_needed_remote_) {
      commit(*op, seq, /*fast=*/true);
      return;
    }
    if (op->fast_acks + op->inflight >= fast_needed_remote_) return;  // still possible
    // The fast quorum is out of reach; fall back to the classic path.
    enter_slow_path(*op, seq);
    // A failed post may have failed every op (fail_if_quorum_lost).
    op = ops_.find(seq);
    if (op == nullptr || op->resolved) return;
  }
  if (op->accepts >= classic_needed_remote_) {
    commit(*op, seq, /*fast=*/false);
    return;
  }
  if (op->accepts + op->inflight < classic_needed_remote_) {
    op->resolved = true;
    verdict_(
        seq, op->aborts > 0
                 ? error(StatusCode::kAborted, "slot fenced by a higher ballot")
                 : error(StatusCode::kUnavailable, "quorum of replicas lost"));
  }
}

void OneSidedCommunicator::maybe_erase(u64 seq) {
  const OpState* op = ops_.find(seq);
  if (op != nullptr && op->resolved && op->inflight == 0) ops_.erase(seq);
}

void OneSidedCommunicator::fail_if_quorum_lost() {
  if (live_target_count() >= classic_needed_remote_) return;
  // In seq order; each verdict may re-enter and edit the table.
  ops_.for_each_in_order([this](u64 seq, OpState& op) {
    if (!op.resolved) {
      op.resolved = true;
      verdict_(seq, error(StatusCode::kUnavailable, "quorum of replicas lost"));
    }
  });
}

void OneSidedCommunicator::abort_all() {
  ops_.clear();
  wr_ctx_.clear();
  takeover_.reset();
}

}  // namespace p4ce::consensus
