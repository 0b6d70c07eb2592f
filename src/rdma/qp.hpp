// Reliable-connection (RC) queue pair state machine: MTU segmentation, PSN
// sequencing, ACK/NAK generation and processing, credit-based flow control,
// go-back-N retransmission with timeouts — the full transport P4CE's switch
// has to stay transparent to.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "common/ring.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "rdma/completion.hpp"
#include "rdma/headers.hpp"
#include "rdma/memory.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {

class Nic;

enum class QpState : u8 { kReset, kInit, kRtr, kRts, kError };

struct QpConfig {
  u32 mtu = 1024;          ///< max payload bytes per packet (RoCE MTU)
  u32 max_send_wr = 16;    ///< max in-flight messages ("up to 16 pending write
                           ///< requests" on the paper's setup, §IV-C)
  u32 max_queued_wr = 1u << 20;  ///< send-queue capacity before post fails
  /// RDMA timeout; "timeout values can only take discrete values of the form
  /// 4.096 x 2^x us"; the paper's cards use 131 us (§V-E).
  static constexpr Duration retransmit_timeout = 131'072;  // ns
  u32 max_retries = 7;
};

/// Reliable-connection queue pair.
///
/// Requester side: post_write/post_read segment messages into packets,
/// assign consecutive PSNs, respect the in-flight window (min of
/// max_send_wr and the credits last advertised by the responder), complete
/// work on ACK, go-back-N on NAK(sequence error) or timeout, and surface
/// fatal errors (access NAK, retry exhaustion) as error completions plus a
/// QP transition to the error state.
///
/// Responder side: validate PSNs (duplicate -> re-ACK, gap -> NAK), validate
/// R_key/permissions/bounds through the NIC's memory manager, DMA the
/// payload, and acknowledge with the NIC's current credit count.
class QueuePair {
 public:
  QueuePair(sim::Simulator& sim, Nic& nic, Qpn qpn, CompletionQueue& cq, QpConfig config);
  ~QueuePair();

  Qpn qpn() const noexcept { return qpn_; }
  QpState state() const noexcept { return state_; }
  const QpConfig& config() const noexcept { return config_; }

  /// Connect this QP to its remote half: peer address, peer QPN, the PSN we
  /// start sending with, and the first PSN we expect from the peer.
  /// Transitions Reset -> RTS.
  void connect(Ipv4Addr remote_ip, Qpn remote_qpn, Psn our_start_psn, Psn expected_psn);

  Ipv4Addr remote_ip() const noexcept { return remote_ip_; }
  Qpn remote_qpn() const noexcept { return remote_qpn_; }

  /// Move to the error state, flushing all outstanding work requests.
  void set_error(WcStatus flush_status);

  /// Reset to a fresh connectable state (used when re-routing after a
  /// switch failure).
  void reset();

  // --- Requester API (verbs-like) -------------------------------------

  /// Post an RDMA write of `data` to remote [vaddr, vaddr+size). The bytes
  /// are owned (moved) by the WQE; segmentation slices MTU-sized views of
  /// that one buffer, so no per-packet payload copies happen. Mutating the
  /// caller's buffer after posting therefore cannot alter in-flight packets.
  Status post_write(u64 wr_id, Bytes data, u64 remote_vaddr, RKey rkey, bool signaled = true);

  /// Zero-copy variant: post an already-shared payload (e.g. one log buffer
  /// broadcast across several QPs without duplicating the bytes).
  Status post_write(u64 wr_id, net::PayloadRef data, u64 remote_vaddr, RKey rkey,
                    bool signaled = true);

  /// Post an RDMA read of `len` bytes from remote [vaddr, vaddr+len).
  Status post_read(u64 wr_id, u64 remote_vaddr, RKey rkey, u32 len);

  /// Post a compare-and-swap on the remote 8-byte word at `remote_vaddr`:
  /// swaps in `swap` iff the word equals `compare`. The completion carries
  /// the original value either way (`atomic_original`).
  Status post_cas(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 compare, u64 swap,
                  bool signaled = true);

  /// Post a fetch-and-add of `add` on the remote 8-byte word.
  Status post_faa(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 add, bool signaled = true);

  /// Post a masked compare-and-swap (ConnectX extended atomic): compares
  /// only the bits selected by `compare_mask`, and on match writes only the
  /// bits selected by `swap_mask`.
  Status post_masked_cas(u64 wr_id, u64 remote_vaddr, RKey rkey, u64 compare, u64 swap,
                         u64 compare_mask, u64 swap_mask, bool signaled = true);

  u32 inflight_messages() const noexcept { return static_cast<u32>(inflight_.size()); }
  u32 queued_messages() const noexcept { return static_cast<u32>(send_queue_.size()); }

  /// Credits the responder last advertised (paper Table I: "how many
  /// requests the client may send to the server at this time").
  u8 last_seen_credits() const noexcept { return credits_seen_; }

  // --- Responder-side access control (Mu permission switching) --------

  /// Whether inbound RDMA writes on this connection are honoured. Replicas
  /// flip this so only the current leader can append to their log (§III).
  void set_allow_remote_write(bool allow) noexcept { allow_remote_write_ = allow; }

  // --- Dataplane entry point -------------------------------------------

  /// Handle an inbound packet addressed to this QP (called by the NIC).
  void handle_packet(const net::Packet& packet);

  /// Invoked when the QP transitions to the error state (timeout / fatal
  /// NAK). Used by P4CE to detect a dead switch and fall back.
  void set_error_callback(std::function<void(WcStatus)> cb) { error_cb_ = std::move(cb); }

  /// Invoked on every NAK this QP receives as a requester, fatal or not.
  /// P4CE reverts to un-accelerated communication on the first NAK from the
  /// switch ("when the switch receives a negative acknowledgment, it
  /// unconditionally forwards it to the leader. P4CE then reverts to
  /// un-accelerated communications", §III-A).
  void set_nak_callback(std::function<void(NakCode, Psn)> cb) { nak_cb_ = std::move(cb); }

  // --- Introspection ----------------------------------------------------

  Psn next_send_psn() const noexcept { return send_psn_; }
  /// PSN the next *posted* message will start at: PSNs are assigned when a
  /// WQE leaves the send queue, so account for everything still queued.
  Psn planned_next_psn() const noexcept {
    u32 queued = 0;
    for (std::size_t i = 0; i < send_queue_.size(); ++i) queued += packets_for(send_queue_[i]);
    return psn_add(send_psn_, queued);
  }
  Psn expected_recv_psn() const noexcept { return expected_psn_; }

 private:
  struct Wqe {
    u64 wr_id = 0;
    // kWriteOnly (any write), kReadRequest, or an atomic opcode.
    Opcode kind = Opcode::kWriteOnly;
    net::PayloadRef payload;  // writes: whole-message immutable buffer, sliced per packet
    Bytes assembly;           // reads: mutable buffer response packets land in
    u64 remote_vaddr = 0;
    RKey rkey = 0;
    u32 length = 0;
    bool signaled = true;
    Psn first_psn = 0;
    Psn last_psn = 0;
    AtomicArgs atomic;        // atomics: operands
    u64 atomic_original = 0;  // atomics: original value from the response
  };

  // Requester internals.
  void pump_send_queue();
  void transmit_wqe(const Wqe& wqe);
  u32 packets_for(const Wqe& wqe) const noexcept;
  Status post_atomic(u64 wr_id, Opcode kind, u64 remote_vaddr, RKey rkey,
                     const AtomicArgs& args, bool signaled);
  void handle_ack(const net::Packet& packet);
  void handle_read_response(const net::Packet& packet);
  void handle_atomic_response(const net::Packet& packet);
  /// Post the completion of an in-flight WQE. Its CQ callback runs now and
  /// may reset the QP, so the caller then retires the WQE by PSN.
  void complete(const Wqe& wqe, WcStatus status, Bytes read_data = {});
  /// Drop the in-flight WQE whose first packet is `first_psn`; false if it
  /// is gone (a completion callback reset or errored the QP).
  bool retire(Psn first_psn);
  /// (Re)start the retransmit timer: the deadline moves to one timeout
  /// from now, in the tie place a timeout event scheduled now would take.
  void arm_timer();
  void disarm_timer() noexcept { rto_deadline_ = kTimeNever; }
  bool timer_armed() const noexcept { return rto_deadline_ != kTimeNever; }
  void queue_wake();
  void on_wake(u64 key_seq);
  void on_timeout();

  // Responder internals.
  void handle_request(const net::Packet& packet);
  void send_ack(Psn psn);
  void send_nak(Psn psn, NakCode code);
  void send_atomic_ack(Psn psn, u64 original);
  net::Packet make_response_shell(Opcode op, Psn psn) const;

  /// Transport-health series in this run's registry. Nothing reads them per
  /// QP, so each is one bare counter that every QP of the run bumps.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& registry);
    obs::Counter& msgs_sent;
    obs::Counter& msgs_received;
    obs::Counter& retransmits;
    obs::Counter& timeouts;
    obs::Counter& naks_rx;
    obs::Counter& gap_naks_tx;
    obs::Counter& duplicates_rx;
    obs::Gauge& ack_credits;
    obs::Gauge& inflight;
  };

  sim::Simulator& sim_;
  Metrics m_;
  Nic& nic_;
  Qpn qpn_;
  CompletionQueue& cq_;
  QpConfig config_;

  QpState state_ = QpState::kReset;
  Ipv4Addr remote_ip_ = 0;
  Qpn remote_qpn_ = 0;

  // Requester state.
  Ring<Wqe> send_queue_;         // posted, not yet transmitted
  Ring<Wqe> inflight_;           // transmitted, awaiting ACK (ordered by PSN)
  Psn send_psn_ = 0;             // next PSN to assign
  u8 credits_seen_ = 16;         // responder credits from the last AETH
  u32 retry_count_ = 0;
  // The retransmit timer is re-armed on every ACK, so it is lazy: arming
  // records the deadline and reserves its tie key, disarming clears the
  // deadline, and at most one wake event chases the deadline. A wake fires
  // on_timeout() only if the deadline and key are still its own; otherwise
  // it re-queues itself at the current ones.
  SimTime rto_deadline_ = kTimeNever;  ///< kTimeNever: disarmed
  sim::Simulator::TieKey rto_key_;
  sim::EventHandle rto_wake_;

  // Responder state.
  Psn expected_psn_ = 0;
  u32 msn_ = 0;                  // messages completed as responder
  bool allow_remote_write_ = true;
  // In-progress multi-packet inbound write (context stashed from WriteFirst).
  struct InboundWrite {
    u64 vaddr = 0;
    RKey rkey = 0;
    u32 remaining = 0;
  };
  std::optional<InboundWrite> inbound_write_;
  /// Saved responses for executed atomics, keyed by request PSN. A
  /// retransmitted atomic must never re-execute (it is not idempotent); the
  /// responder replays the saved original instead, mirroring the
  /// duplicate-request response cache real RNICs keep. Depth exceeds the
  /// largest send window, so any go-back-N replay finds its entry.
  static constexpr std::size_t kAtomicReplayDepth = 32;
  Ring<std::pair<Psn, u64>> atomic_replay_;

  std::function<void(WcStatus)> error_cb_;
  std::function<void(NakCode, Psn)> nak_cb_;
};

}  // namespace p4ce::rdma
