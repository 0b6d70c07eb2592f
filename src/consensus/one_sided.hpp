// Velos-style one-sided Paxos *communicator*: the leader drives consensus
// with nothing but verbs atomics and RDMA writes against per-replica
// registers — replica CPUs never touch the protocol.
//
// Each replica exposes a small "atomics region" next to its log:
//
//   offset 0   frontier   u64   FAA-allocated slot high-water mark
//   offset 8   ballot     u64   highest leader ballot seen (takeover fence)
//   offset 16  slots[]    u64   one consensus register per slot, laid out as
//                               [ballot:16][stamp:48]  (0 == empty)
//
// Fast path (one broadcast-CAS round trip): the leader pairs an unsignaled
// RDMA write of the log entry with a signaled CAS(slot, prev -> word) on the
// op's slot, on the same QP, where word = ballot|stamp. RC ordering means the
// CAS response proves the data landed, so a *fast quorum* of (3n+3)/4
// successful CASes (leader included) commits in a single round trip.
//
// Slot reuse: the slots form a ring, so op k + 2^14 lands on op k's slot.
// The leader remembers the word it last installed in each slot (a 128 KB
// slot-word memory, all zero when the communicator is built) and uses it as
// `prev`; the CAS also counts as won when the slot already holds our own
// word. Any other word (a higher ballot, a stale regime's word, a replica
// that missed this leader's previous lap) sends the op to the slow path,
// whose accept leaves our word there, so the next lap is fast again. A new
// term builds a new communicator with an empty memory: its first lap takes
// the slow path wherever an older regime left words, at no extra WRs.
//
// Deposed leaders: an old leader's CAS succeeds only on a slot that still
// holds exactly its own last word, so no newer ballot has touched that slot
// — the same guarantee a CAS against an empty slot gives — and permission
// fencing still stops the old leader's writes.
//
// Slow path (classic two-phase, on CAS conflict): a masked-CAS "prepare"
// raises the slot's ballot bits unconditionally while preserving the stamp
// (and reports the original — a higher ballot aborts us), then a plain CAS
// "accept" installs our ballot|stamp; a classic majority of accepts commits.
//
// Commitment is one-sided; *delivery* still follows the log writes landing
// at each replica, exactly as in Mu. The slots are commit flags, not a value
// store: safety across leader changes rests on the same log-based recovery
// and single-writer RDMA permission fencing as the Mu decision protocol
// (atomics are gated by the identical permission bit as writes), which is a
// documented departure from Velos' value-carrying slots (DESIGN.md §8).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "consensus/communicator.hpp"

namespace p4ce::consensus {

/// Number of consensus slot registers each replica exposes (ring, reused).
inline constexpr u64 kOneSidedSlotCount = 1ull << 14;
/// Slots a leader reserves per frontier fetch-and-add.
inline constexpr u64 kOneSidedFrontierBatch = 512;

inline constexpr u64 kOneSidedFrontierOffset = 0;
inline constexpr u64 kOneSidedBallotOffset = 8;
inline constexpr u64 kOneSidedSlotsOffset = 16;

constexpr u64 one_sided_mr_bytes() noexcept {
  return kOneSidedSlotsOffset + kOneSidedSlotCount * 8;
}

/// Fast quorum (total machines, leader included): (3n+3)/4 — enough that any
/// two fast quorums intersect in a classic majority (Velos / Fast Paxos).
constexpr u32 one_sided_fast_quorum(u32 n) noexcept { return (3 * n + 3) / 4; }
/// Classic majority (total machines, leader included).
constexpr u32 one_sided_classic_quorum(u32 n) noexcept { return n / 2 + 1; }

/// Ballot packing: 12 bits of term + 4 bits of node id, so ballots from
/// different leaders of the same term never collide and any ballot of a
/// real term (term >= 1) is nonzero.
constexpr u64 one_sided_ballot(u64 term, NodeId id) noexcept {
  return ((term & 0xfff) << 4) | (id & 0xf);
}

inline constexpr u64 kOneSidedStampMask = (u64{1} << 48) - 1;

/// Compose a slot word from a ballot and an op stamp (low 48 bits).
constexpr u64 one_sided_slot_word(u64 ballot, u64 stamp) noexcept {
  return (ballot << 48) | (stamp & kOneSidedStampMask);
}

class OneSidedCommunicator : public DirectCommunicator {
 public:
  OneSidedCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                       u32 cluster_size, NodeId self, std::vector<ReplicaTarget> targets,
                       VerdictFn verdict);

  /// Ballot takeover: fence the previous leader by raising every reachable
  /// replica's ballot register to ours, then adopt the highest frontier and
  /// reserve the first slot batch. `on_ready` fires once a classic quorum
  /// answered (ok), or with the reason the takeover could not fence a
  /// quorum; the communicator is usable either way (ops just fail
  /// kUnavailable until enough replicas return).
  void takeover(u64 term, std::function<void(Status)> on_ready);

  void replicate(u64 offset, net::PayloadRef entry, u64 op) override;
  void abort_all() override;
  std::size_t op_table_capacity() const noexcept override {
    return std::max(ops_.capacity(), wr_ctx_.capacity());
  }

  u64 ballot() const noexcept { return ballot_; }
  /// This node's commits by path, over every term it led:
  /// consensus.one_sided.{fast,slow}_commits{node=<id>}.
  u64 fast_path_commits() const noexcept { return m_fast_commits_.value(); }
  u64 slow_path_commits() const noexcept { return m_slow_commits_.value(); }

 private:
  enum class Phase : u8 {
    kFastCas,      ///< fast-path CAS on the op's slot
    kPrepare,      ///< slow-path masked-CAS raising the slot ballot
    kAccept,       ///< slow-path CAS installing ballot|stamp
    kFrontier,     ///< steady-state frontier batch reservation
    kTkRead,       ///< takeover: read of the ballot register (FAA +0)
    kTkRaise,      ///< takeover: CAS raising the ballot register
    kTkFrontier,   ///< takeover: frontier batch reservation
  };

  struct WrCtx {
    u64 seq = 0;
    Phase phase = Phase::kFastCas;
    std::size_t target = 0;
    u64 expected = 0;  ///< CAS compare operand (success iff original == this)
  };

  struct OpState {
    u64 slot_off = 0;  ///< byte offset of the slot inside the atomics region
    u64 word = 0;      ///< ballot|stamp this op installs
    u64 prev = 0;      ///< word this leader last installed in the slot (0: none)
    u32 inflight = 0;  ///< wr completions still owed to this op
    u32 fast_acks = 0;
    u32 fast_rejects = 0;
    u32 accepts = 0;
    u32 aborts = 0;    ///< targets where a higher ballot fenced us off
    u32 retries = 0;
    bool slow = false;
    bool resolved = false;
  };

  struct Takeover {
    std::function<void(Status)> on_ready;
    u32 posted = 0;
    u32 fenced = 0;
    u32 superseded = 0;
    u32 failed = 0;
    u32 frontier_posted = 0;
    u32 frontier_done = 0;
    u32 frontier_failed = 0;
    bool reserving = false;
  };

  void on_completion(std::size_t target_index, const rdma::Completion& c) override;
  void handle_fast(OpState& op, const WrCtx& ctx, u64 original);
  void handle_prepare(OpState& op, u64 seq, std::size_t target_index, u64 original);
  void handle_accept(OpState& op, u64 seq, std::size_t target_index, const WrCtx& ctx,
                     u64 original);
  void handle_takeover(const WrCtx& ctx, std::size_t target_index, u64 original);
  void takeover_chain_failed();
  void takeover_check(Takeover& tk);
  void takeover_frontier_check(Takeover& tk);
  void enter_slow_path(OpState& op, u64 seq);
  void post_prepare(u64 seq, std::size_t target_index);
  void commit(OpState& op, u64 seq, bool fast);
  void check_op_verdict(u64 seq);
  void maybe_erase(u64 seq);
  void fail_if_quorum_lost() override;
  void reserve_frontier_batch();

  u32 fast_needed_remote_;     ///< remote fast-quorum CAS wins needed
  u32 classic_needed_remote_;  ///< remote classic-majority answers needed
  NodeId self_;
  obs::Counter& m_fast_commits_;
  obs::Counter& m_slow_commits_;
  obs::Counter& m_slot_conflicts_;

  u64 ballot_ = 0;
  u64 frontier_base_ = 0;  ///< first slot index of the current reservation
  u64 ops_issued_ = 0;     ///< slots consumed since takeover
  u64 reserved_ = 0;       ///< slots reserved since takeover

  OpWindow<OpState> ops_;  ///< by seq
  OpWindow<WrCtx> wr_ctx_;  ///< by wr id
  /// The word this leader last installed in each slot: the fast CAS's
  /// compare operand when the ring comes round again.
  std::vector<u64> slot_words_ = std::vector<u64>(kOneSidedSlotCount);
  u64 next_wr_ = 1;
  std::optional<Takeover> takeover_;  ///< the current ballot's takeover
  SimTime last_ack_ = 0;  ///< arrival time of the completion being processed
};

}  // namespace p4ce::consensus
