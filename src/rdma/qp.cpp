#include "rdma/qp.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/context.hpp"
#include "rdma/nic.hpp"

namespace p4ce::rdma {

QueuePair::Metrics::Metrics(obs::MetricsRegistry& registry)
    : msgs_sent(registry.counter("rdma.qp.msgs_sent")),
      msgs_received(registry.counter("rdma.qp.msgs_received")),
      retransmits(registry.counter("rdma.qp.retransmits")),
      timeouts(registry.counter("rdma.qp.retransmit_timeouts")),
      naks_rx(registry.counter("rdma.qp.naks_rx")),
      gap_naks_tx(registry.counter("rdma.qp.gap_naks_tx")),
      duplicates_rx(registry.counter("rdma.qp.duplicates_rx")),
      ack_credits(registry.gauge("rdma.qp.ack_credits")),
      inflight(registry.gauge("rdma.qp.inflight")) {}

QueuePair::QueuePair(sim::Simulator& sim, Nic& nic, Qpn qpn, CompletionQueue& cq, QpConfig config)
    : sim_(sim), m_(sim.obs().metrics), nic_(nic), qpn_(qpn), cq_(cq), config_(config) {}

QueuePair::~QueuePair() {
  // A QP destroyed while healthy may still have a retransmit wake queued;
  // the event captures `this`, so it must not outlive the QP.
  rto_wake_.cancel();
  m_.inflight.add(-static_cast<double>(inflight_.size()));
}

void QueuePair::connect(Ipv4Addr remote_ip, Qpn remote_qpn, Psn our_start_psn, Psn expected_psn) {
  remote_ip_ = remote_ip;
  remote_qpn_ = remote_qpn;
  send_psn_ = our_start_psn & kPsnMask;
  expected_psn_ = expected_psn & kPsnMask;
  state_ = QpState::kRts;
  retry_count_ = 0;
  credits_seen_ = static_cast<u8>(std::min<u32>(config_.max_send_wr, 31));
}

void QueuePair::set_error(WcStatus flush_status) {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  disarm_timer();
  m_.inflight.add(-static_cast<double>(inflight_.size()));
  // Flush everything outstanding, oldest first, as a real QP would. Detach
  // the queues first: a completion callback may reset() this QP.
  auto inflight = std::exchange(inflight_, {});
  auto queued = std::exchange(send_queue_, {});
  for (std::size_t i = 0; i < inflight.size(); ++i) complete(inflight[i], flush_status);
  for (std::size_t i = 0; i < queued.size(); ++i) complete(queued[i], WcStatus::kFlushed);
  if (error_cb_) error_cb_(flush_status);
}

void QueuePair::reset() {
  disarm_timer();
  rto_wake_.cancel();
  m_.inflight.add(-static_cast<double>(inflight_.size()));
  inflight_.clear();
  send_queue_.clear();
  inbound_write_.reset();
  atomic_replay_.clear();
  retry_count_ = 0;
  msn_ = 0;
  state_ = QpState::kReset;
}

u32 QueuePair::packets_for(const Wqe& wqe) const noexcept {
  if (wqe.length == 0) return 1;
  return (wqe.length + config_.mtu - 1) / config_.mtu;
}

Status QueuePair::post_write(u64 wr_id, Bytes data, u64 remote_vaddr, RKey rkey, bool signaled) {
  // Take ownership of the bytes once; from here on the payload is immutable
  // and shared by every packet (and retransmission) carved out of this WQE.
  return post_write(wr_id, net::PayloadRef(std::move(data)), remote_vaddr, rkey, signaled);
}

Status QueuePair::post_write(u64 wr_id, net::PayloadRef data, u64 remote_vaddr, RKey rkey,
                             bool signaled) {
  if (state_ != QpState::kRts) {
    return error(StatusCode::kFailedPrecondition, "QP not in RTS state");
  }
  if (send_queue_.size() + inflight_.size() >= config_.max_queued_wr) {
    return error(StatusCode::kResourceExhausted, "send queue full");
  }
  Wqe wqe;
  wqe.wr_id = wr_id;
  wqe.kind = Opcode::kWriteOnly;
  wqe.length = static_cast<u32>(data.size());
  wqe.payload = std::move(data);
  wqe.remote_vaddr = remote_vaddr;
  wqe.rkey = rkey;
  wqe.signaled = signaled;
  send_queue_.push_back(std::move(wqe));
  pump_send_queue();
  return Status::ok();
}

Status QueuePair::post_read(u64 wr_id, u64 remote_vaddr, RKey rkey, u32 len) {
  if (state_ != QpState::kRts) {
    return error(StatusCode::kFailedPrecondition, "QP not in RTS state");
  }
  if (send_queue_.size() + inflight_.size() >= config_.max_queued_wr) {
    return error(StatusCode::kResourceExhausted, "send queue full");
  }
  Wqe wqe;
  wqe.wr_id = wr_id;
  wqe.kind = Opcode::kReadRequest;
  wqe.length = len;
  wqe.remote_vaddr = remote_vaddr;
  wqe.rkey = rkey;
  wqe.signaled = true;
  send_queue_.push_back(std::move(wqe));
  pump_send_queue();
  return Status::ok();
}

Status QueuePair::post_atomic(u64 wr_id, Opcode kind, u64 remote_vaddr, RKey rkey,
                              const AtomicArgs& args, bool signaled) {
  if (state_ != QpState::kRts) {
    return error(StatusCode::kFailedPrecondition, "QP not in RTS state");
  }
  if (send_queue_.size() + inflight_.size() >= config_.max_queued_wr) {
    return error(StatusCode::kResourceExhausted, "send queue full");
  }
  Wqe wqe;
  wqe.wr_id = wr_id;
  wqe.kind = kind;
  wqe.length = 8;
  wqe.remote_vaddr = remote_vaddr;
  wqe.rkey = rkey;
  wqe.signaled = signaled;
  wqe.atomic = args;
  send_queue_.push_back(std::move(wqe));
  pump_send_queue();
  return Status::ok();
}

Status QueuePair::post_cas(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 compare, u64 swap,
                           bool signaled) {
  return post_atomic(wr_id, Opcode::kCompareSwap, remote_vaddr, rkey,
                     AtomicArgs{.compare = compare, .swap_add = swap}, signaled);
}

Status QueuePair::post_faa(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 add, bool signaled) {
  return post_atomic(wr_id, Opcode::kFetchAdd, remote_vaddr, rkey, AtomicArgs{.swap_add = add},
                     signaled);
}

Status QueuePair::post_masked_cas(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 compare, u64 swap,
                                  u64 compare_mask, u64 swap_mask, bool signaled) {
  return post_atomic(wr_id, Opcode::kMaskedCompareSwap, remote_vaddr, rkey,
                     AtomicArgs{.compare = compare,
                                .swap_add = swap,
                                .compare_mask = compare_mask,
                                .swap_mask = swap_mask},
                     signaled);
}

void QueuePair::pump_send_queue() {
  // The in-flight window respects both the local cap and the credits the
  // responder last advertised; at least one message may always probe so a
  // momentarily-drained responder cannot deadlock the connection.
  const u32 window =
      std::min<u32>(config_.max_send_wr, std::max<u32>(1, credits_seen_));
  while (!send_queue_.empty() && inflight_.size() < window) {
    Wqe wqe = std::move(send_queue_.front());
    send_queue_.pop_front();
    const u32 npkts = packets_for(wqe);
    wqe.first_psn = send_psn_;
    wqe.last_psn = psn_add(send_psn_, npkts - 1);
    send_psn_ = psn_add(send_psn_, npkts);
    transmit_wqe(wqe);
    inflight_.push_back(std::move(wqe));
    m_.msgs_sent.inc();
    m_.inflight.add(1);
  }
  if (!inflight_.empty() && !timer_armed()) arm_timer();
}

void QueuePair::transmit_wqe(const Wqe& wqe) {
  const u32 npkts = packets_for(wqe);

  if (is_atomic(wqe.kind)) {
    // Atomics are always a single packet carrying the AtomicETH.
    net::Packet p;
    p.eth.src_mac = nic_.mac();
    p.eth.dst_mac = 0;
    p.ip.src = nic_.ip();
    p.ip.dst = remote_ip_;
    p.udp.src_port = static_cast<u16>(0xc000 | (qpn_ & 0x3fff));
    p.bth.opcode = wqe.kind;
    p.bth.dest_qp = remote_qpn_;
    p.bth.psn = wqe.first_psn;
    p.bth.ack_request = true;
    p.atomic_eth = AtomicEth{.vaddr = wqe.remote_vaddr,
                             .rkey = wqe.rkey,
                             .swap_add = wqe.atomic.swap_add,
                             .compare = wqe.atomic.compare,
                             .masked = wqe.kind == Opcode::kMaskedCompareSwap,
                             .swap_mask = wqe.atomic.swap_mask,
                             .compare_mask = wqe.atomic.compare_mask};
    nic_.send_packet(std::move(p));
    return;
  }

  if (wqe.kind == Opcode::kReadRequest) {
    net::Packet p;
    p.eth.src_mac = nic_.mac();
    p.eth.dst_mac = 0;
    p.ip.src = nic_.ip();
    p.ip.dst = remote_ip_;
    p.udp.src_port = static_cast<u16>(0xc000 | (qpn_ & 0x3fff));
    p.bth.opcode = Opcode::kReadRequest;
    p.bth.dest_qp = remote_qpn_;
    p.bth.psn = wqe.first_psn;
    p.bth.ack_request = true;
    p.reth = Reth{wqe.remote_vaddr, wqe.rkey, wqe.length};
    nic_.send_packet(std::move(p));
    return;
  }

  // RDMA write: segment into MTU-sized packets with IBTA opcodes.
  for (u32 i = 0; i < npkts; ++i) {
    net::Packet p;
    p.eth.src_mac = nic_.mac();
    p.eth.dst_mac = 0;
    p.ip.src = nic_.ip();
    p.ip.dst = remote_ip_;
    p.udp.src_port = static_cast<u16>(0xc000 | (qpn_ & 0x3fff));
    p.bth.dest_qp = remote_qpn_;
    p.bth.psn = psn_add(wqe.first_psn, i);

    if (npkts == 1) {
      p.bth.opcode = Opcode::kWriteOnly;
    } else if (i == 0) {
      p.bth.opcode = Opcode::kWriteFirst;
    } else if (i == npkts - 1) {
      p.bth.opcode = Opcode::kWriteLast;
    } else {
      p.bth.opcode = Opcode::kWriteMiddle;
    }
    if (carries_reth(p.bth.opcode)) {
      p.reth = Reth{wqe.remote_vaddr, wqe.rkey, wqe.length};
    }
    p.bth.ack_request = is_last_or_only(p.bth.opcode);

    const u64 offset = static_cast<u64>(i) * config_.mtu;
    const u64 chunk = std::min<u64>(config_.mtu, wqe.length - offset);
    p.payload = wqe.payload.slice(offset, chunk);  // view, not copy
    nic_.send_packet(std::move(p));
  }
}

void QueuePair::handle_packet(const net::Packet& packet) {
  if (state_ == QpState::kError) return;
  if (packet.is_ack()) {
    handle_ack(packet);
  } else if (packet.is_atomic_response()) {
    handle_atomic_response(packet);
  } else if (packet.is_read_response()) {
    handle_read_response(packet);
  } else if (rdma::is_request(packet.bth.opcode)) {
    handle_request(packet);
  }
}

void QueuePair::handle_ack(const net::Packet& packet) {
  if (!packet.aeth) return;
  const Aeth& aeth = *packet.aeth;

  if (aeth.is_nak) {
    m_.naks_rx.inc();
    if (nak_cb_) nak_cb_(aeth.nak_code, packet.bth.psn);
    if (state_ == QpState::kError || state_ == QpState::kReset) {
      return;  // the NAK callback may have reset or errored the QP
    }
    if (aeth.nak_code == NakCode::kPsnSequenceError) {
      // Go-back-N: the responder expected packet.bth.psn; resend everything
      // outstanding from the oldest unacknowledged message.
      m_.retransmits.inc();
      for (std::size_t i = 0; i < inflight_.size(); ++i) transmit_wqe(inflight_[i]);
      arm_timer();
    } else {
      // Fatal NAK (access error etc.): the offending (oldest) WQE completes
      // with an error and the QP enters the error state; this is what makes
      // a P4CE leader notice a misbehaving/revoked connection (§III).
      WcStatus status = WcStatus::kFlushed;
      if (aeth.nak_code == NakCode::kRemoteAccessError) {
        status = WcStatus::kRemoteAccessError;
      } else if (aeth.nak_code == NakCode::kInvalidRequest) {
        status = WcStatus::kRemoteInvalidRequest;
      }
      if (!inflight_.empty()) {
        const Psn first = inflight_.front().first_psn;
        complete(inflight_.front(), status);
        retire(first);
      }
      set_error(WcStatus::kFlushed);
    }
    return;
  }

  // Positive ACK with PSN p acknowledges every packet up to and including p
  // (RDMA ACKs are cumulative / coalescable).
  credits_seen_ = aeth.credits;
  m_.ack_credits.set(aeth.credits);
  bool progressed = false;
  while (!inflight_.empty()) {
    Wqe& head = inflight_.front();
    // Reads and atomics complete via their response packets, never via a
    // plain cumulative ACK.
    if (head.kind == Opcode::kReadRequest || is_atomic(head.kind)) break;
    if (psn_distance(head.last_psn, packet.bth.psn) < 0) break;  // not yet covered
    const Psn first = head.first_psn;
    complete(head, WcStatus::kSuccess);
    if (!retire(first)) break;
    progressed = true;
  }
  if (progressed) retry_count_ = 0;
  disarm_timer();
  if (!inflight_.empty()) arm_timer();
  pump_send_queue();
}

void QueuePair::handle_read_response(const net::Packet& packet) {
  // Find the read this response belongs to. Responses arrive in order on the
  // in-order network, so it is the oldest in-flight read covering the PSN.
  std::size_t index = 0;
  for (; index < inflight_.size(); ++index) {
    const Wqe& w = inflight_[index];
    if (w.kind == Opcode::kReadRequest && psn_distance(w.first_psn, packet.bth.psn) >= 0 &&
        psn_distance(packet.bth.psn, w.last_psn) >= 0) {
      break;
    }
  }
  if (index == inflight_.size()) return;  // stale/duplicate response
  Wqe& wqe = inflight_[index];

  // Land the response slice in the WQE's assembly buffer — the one
  // materialization on the read path (the "DMA" into requester memory).
  const u64 offset = static_cast<u64>(psn_distance(wqe.first_psn, packet.bth.psn)) * config_.mtu;
  if (wqe.assembly.size() < wqe.length) wqe.assembly.resize(wqe.length);
  packet.payload.copy_to(
      std::span<u8>(wqe.assembly).subspan(offset, wqe.length - offset));

  if (packet.aeth) credits_seen_ = packet.aeth->credits;

  if (packet.bth.psn == wqe.last_psn) {
    // Read fully assembled. Reads ahead of it in the queue are still
    // outstanding only if the responder reordered, which our in-order
    // fabric never does; complete in queue order.
    const Psn first = wqe.first_psn;
    complete(wqe, WcStatus::kSuccess, std::move(wqe.assembly));
    retire(first);
    retry_count_ = 0;
    disarm_timer();
    if (!inflight_.empty()) arm_timer();
    pump_send_queue();
  }
}

void QueuePair::handle_atomic_response(const net::Packet& packet) {
  if (!packet.atomic_ack_eth) return;
  if (packet.aeth) {
    credits_seen_ = packet.aeth->credits;
    m_.ack_credits.set(packet.aeth->credits);
  }

  // Like any ACK, the atomic response is cumulative: it acknowledges every
  // packet before its PSN, so preceding (possibly unsignaled) writes
  // complete first. This is what lets a caller pair an unsignaled write
  // with a signaled atomic on one QP and treat the atomic's completion as
  // proof the write landed.
  bool progressed = false;
  while (!inflight_.empty()) {
    Wqe& head = inflight_.front();
    if (head.kind == Opcode::kReadRequest || is_atomic(head.kind)) break;
    if (psn_distance(head.last_psn, packet.bth.psn) <= 0) break;  // not strictly before
    const Psn first = head.first_psn;
    complete(head, WcStatus::kSuccess);
    if (!retire(first)) break;
    progressed = true;
  }

  if (!inflight_.empty() && is_atomic(inflight_.front().kind) &&
      inflight_.front().first_psn == packet.bth.psn) {
    Wqe& wqe = inflight_.front();
    wqe.atomic_original = packet.atomic_ack_eth->original;
    complete(wqe, WcStatus::kSuccess);
    retire(packet.bth.psn);
    progressed = true;
  }
  // Else: a duplicate/stale response (the original already completed); the
  // state above was still refreshed, nothing more to do.

  if (progressed) retry_count_ = 0;
  disarm_timer();
  if (!inflight_.empty()) arm_timer();
  pump_send_queue();
}

bool QueuePair::retire(Psn first_psn) {
  for (std::size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].first_psn != first_psn) continue;
    if (i == 0) {
      inflight_.pop_front();
    } else {
      inflight_.erase(i);
    }
    m_.inflight.add(-1);
    return true;
  }
  return false;
}

void QueuePair::complete(const Wqe& wqe, WcStatus status, Bytes read_data) {
  if (!wqe.signaled && status == WcStatus::kSuccess) return;
  Completion c;
  c.wr_id = wqe.wr_id;
  c.status = status;
  c.opcode = wqe.kind;
  c.byte_len = wqe.length;
  c.qpn = qpn_;
  c.read_data = std::move(read_data);
  c.atomic_original = wqe.atomic_original;
  cq_.push(std::move(c));
}

void QueuePair::arm_timer() {
  rto_deadline_ = sim_.now() + config_.retransmit_timeout;
  rto_key_ = sim_.reserve_key();
  if (!rto_wake_.pending()) queue_wake();
}

void QueuePair::queue_wake() {
  rto_wake_ = sim_.schedule_at(rto_deadline_, rto_key_,
                               [this, seq = rto_key_.seq] { on_wake(seq); });
}

void QueuePair::on_wake(u64 key_seq) {
  if (!timer_armed()) return;
  // Deadlines only move later, and each arming reserves a fresh key.
  if (rto_key_.seq != key_seq) {
    queue_wake();
    return;
  }
  disarm_timer();
  on_timeout();
}

void QueuePair::on_timeout() {
  if (state_ != QpState::kRts || inflight_.empty()) return;
  if (++retry_count_ > config_.max_retries) {
    // Transport gave up: the peer (or the switch in between, §III-A
    // "Faulty switch") is unreachable.
    set_error(WcStatus::kRetryExceeded);
    return;
  }
  m_.timeouts.inc();
  m_.retransmits.inc();
  // A whole-window resend means the path went quiet; per-kind rate
  // limiting in the recorder turns a storm into one capture.
  sim_.obs().recorder.trigger("retransmit_timeout", sim_.now(), "qpn", qpn_);
  for (std::size_t i = 0; i < inflight_.size(); ++i) transmit_wqe(inflight_[i]);
  arm_timer();
}

// --------------------------------------------------------------------------
// Responder side
// --------------------------------------------------------------------------

net::Packet QueuePair::make_response_shell(Opcode op, Psn psn) const {
  net::Packet p;
  p.eth.src_mac = nic_.mac();
  p.eth.dst_mac = 0;
  p.ip.src = nic_.ip();
  p.ip.dst = remote_ip_;
  p.udp.src_port = static_cast<u16>(0xc000 | (qpn_ & 0x3fff));
  p.bth.opcode = op;
  p.bth.dest_qp = remote_qpn_;
  p.bth.psn = psn;
  return p;
}

void QueuePair::send_ack(Psn psn) {
  net::Packet p = make_response_shell(Opcode::kAcknowledge, psn);
  p.aeth = Aeth{.is_nak = false,
                .nak_code = NakCode::kPsnSequenceError,
                .credits = nic_.current_credits(),
                .msn = msn_ & kPsnMask};
  nic_.send_packet(std::move(p));
}

void QueuePair::send_nak(Psn psn, NakCode code) {
  net::Packet p = make_response_shell(Opcode::kAcknowledge, psn);
  p.aeth = Aeth{.is_nak = true, .nak_code = code, .credits = 0, .msn = msn_ & kPsnMask};
  nic_.send_packet(std::move(p));
}

void QueuePair::send_atomic_ack(Psn psn, u64 original) {
  net::Packet p = make_response_shell(Opcode::kAtomicAcknowledge, psn);
  p.aeth = Aeth{.is_nak = false,
                .nak_code = NakCode::kPsnSequenceError,
                .credits = nic_.current_credits(),
                .msn = msn_ & kPsnMask};
  p.atomic_ack_eth = AtomicAckEth{original};
  nic_.send_packet(std::move(p));
}

void QueuePair::handle_request(const net::Packet& packet) {
  const i32 gap = psn_distance(expected_psn_, packet.bth.psn);
  if (gap < 0) {
    // Duplicate (retransmission we already executed). Writes are idempotent
    // here because the requester retransmits identical data at identical
    // addresses; just refresh the ACK so the requester can make progress.
    // Atomics are NOT idempotent: replay the saved response instead of
    // re-executing (real RNICs keep the same duplicate-response cache).
    m_.duplicates_rx.inc();
    if (is_atomic(packet.bth.opcode)) {
      for (std::size_t i = 0; i < atomic_replay_.size(); ++i) {
        const auto& [psn, original] = atomic_replay_[i];
        if (psn == packet.bth.psn) {
          send_atomic_ack(psn, original);
          return;
        }
      }
      // Response fell out of the cache; a plain ACK cannot complete the
      // atomic on the requester, so let its timer drive recovery.
      return;
    }
    if (is_last_or_only(packet.bth.opcode) && packet.bth.ack_request) {
      send_ack(packet.bth.psn);
    }
    return;
  }
  if (gap > 0) {
    // Missing packets: NAK with the PSN we expected (go-back-N point).
    m_.gap_naks_tx.inc();
    send_nak(expected_psn_, NakCode::kPsnSequenceError);
    return;
  }

  switch (packet.bth.opcode) {
    case Opcode::kWriteOnly:
    case Opcode::kWriteFirst: {
      if (!packet.reth) {
        send_nak(packet.bth.psn, NakCode::kInvalidRequest);
        return;
      }
      if (!allow_remote_write_) {
        // The Mu permission mechanism: this peer is not the machine we
        // currently accept writes from (not our leader).
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      const Status st = nic_.memory().remote_write(packet.reth->rkey, packet.reth->vaddr,
                                                   packet.payload.view());
      if (!st.is_ok()) {
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      if (packet.bth.opcode == Opcode::kWriteFirst) {
        inbound_write_ = InboundWrite{
            .vaddr = packet.reth->vaddr + packet.payload.size(),
            .rkey = packet.reth->rkey,
            .remaining = packet.reth->dma_len - static_cast<u32>(packet.payload.size())};
      }
      break;
    }
    case Opcode::kWriteMiddle:
    case Opcode::kWriteLast: {
      if (!inbound_write_) {
        send_nak(packet.bth.psn, NakCode::kInvalidRequest);
        return;
      }
      if (!allow_remote_write_) {
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      const Status st = nic_.memory().remote_write(inbound_write_->rkey, inbound_write_->vaddr,
                                                   packet.payload.view());
      if (!st.is_ok()) {
        inbound_write_.reset();
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      inbound_write_->vaddr += packet.payload.size();
      inbound_write_->remaining -= static_cast<u32>(packet.payload.size());
      if (packet.bth.opcode == Opcode::kWriteLast) inbound_write_.reset();
      break;
    }
    case Opcode::kReadRequest: {
      if (!packet.reth) {
        send_nak(packet.bth.psn, NakCode::kInvalidRequest);
        return;
      }
      auto data = nic_.memory().remote_read(packet.reth->rkey, packet.reth->vaddr,
                                            packet.reth->dma_len);
      if (!data.is_ok()) {
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      // One buffer for the whole response; each packet slices a view.
      const net::PayloadRef whole = std::move(data).value();
      const u32 npkts = std::max<u32>(1, (static_cast<u32>(whole.size()) + config_.mtu - 1) /
                                             config_.mtu);
      ++msn_;
      m_.msgs_received.inc();
      for (u32 i = 0; i < npkts; ++i) {
        Opcode op;
        if (npkts == 1) {
          op = Opcode::kReadResponseOnly;
        } else if (i == 0) {
          op = Opcode::kReadResponseFirst;
        } else if (i == npkts - 1) {
          op = Opcode::kReadResponseLast;
        } else {
          op = Opcode::kReadResponseMiddle;
        }
        net::Packet resp = make_response_shell(op, psn_add(packet.bth.psn, i));
        const u64 off = static_cast<u64>(i) * config_.mtu;
        const u64 chunk = std::min<u64>(config_.mtu, whole.size() - off);
        resp.payload = whole.slice(off, chunk);
        if (is_last_or_only(op)) {
          resp.aeth = Aeth{.is_nak = false,
                           .nak_code = NakCode::kPsnSequenceError,
                           .credits = nic_.current_credits(),
                           .msn = msn_ & kPsnMask};
        }
        nic_.send_packet(std::move(resp));
      }
      // A read of n response packets consumes n PSNs on the request stream.
      expected_psn_ = psn_add(expected_psn_, npkts);
      return;
    }
    case Opcode::kCompareSwap:
    case Opcode::kFetchAdd:
    case Opcode::kMaskedCompareSwap: {
      if (!packet.atomic_eth) {
        send_nak(packet.bth.psn, NakCode::kInvalidRequest);
        return;
      }
      if (!allow_remote_write_) {
        // Atomics mutate memory, so they are fenced by the same
        // single-writer permission switch as RDMA writes.
        send_nak(packet.bth.psn, NakCode::kRemoteAccessError);
        return;
      }
      const AtomicEth& eth = *packet.atomic_eth;
      AtomicOp op = AtomicOp::kCompareSwap;
      if (packet.bth.opcode == Opcode::kFetchAdd) op = AtomicOp::kFetchAdd;
      if (packet.bth.opcode == Opcode::kMaskedCompareSwap) op = AtomicOp::kMaskedCompareSwap;
      auto original = nic_.memory().remote_atomic(
          op, eth.rkey, eth.vaddr,
          AtomicArgs{.compare = eth.compare,
                     .swap_add = eth.swap_add,
                     .compare_mask = eth.compare_mask,
                     .swap_mask = eth.swap_mask});
      if (!original.is_ok()) {
        send_nak(packet.bth.psn,
                 original.status().code() == StatusCode::kInvalidArgument
                     ? NakCode::kInvalidRequest
                     : NakCode::kRemoteAccessError);
        return;
      }
      expected_psn_ = psn_add(expected_psn_, 1);
      ++msn_;
      m_.msgs_received.inc();
      atomic_replay_.push_back({packet.bth.psn, original.value()});
      if (atomic_replay_.size() > kAtomicReplayDepth) atomic_replay_.pop_front();
      send_atomic_ack(packet.bth.psn, original.value());
      return;
    }
    default:
      send_nak(packet.bth.psn, NakCode::kInvalidRequest);
      return;
  }

  expected_psn_ = psn_add(expected_psn_, 1);
  if (is_last_or_only(packet.bth.opcode)) {
    ++msn_;
    m_.msgs_received.inc();
    if (packet.bth.ack_request) send_ack(packet.bth.psn);
  }
}

}  // namespace p4ce::rdma
