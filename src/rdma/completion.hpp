// Completion queues: how the application learns about finished work
// requests, mirroring ibverbs CQ semantics (poll or event callback).
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "rdma/headers.hpp"

namespace p4ce::rdma {

enum class WcStatus : u8 {
  kSuccess = 0,
  kRemoteAccessError,     ///< responder NAK'd with Remote Access Error
  kRemoteInvalidRequest,  ///< responder NAK'd with Invalid Request (e.g. a
                          ///< misaligned atomic target)
  kRetryExceeded,         ///< transport retries exhausted (peer/switch dead)
  kFlushed,               ///< QP moved to error state; outstanding work flushed
};

/// A work completion (ibv_wc equivalent).
struct Completion {
  u64 wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  Opcode opcode = Opcode::kWriteOnly;
  u32 byte_len = 0;
  Qpn qpn = 0;       ///< local QP the work request was posted on
  Bytes read_data;   ///< filled for completed RDMA reads
  /// For completed verbs atomics: the original value of the remote 8-byte
  /// word, before the operation was applied (CAS succeeded iff this equals
  /// the compare operand).
  u64 atomic_original = 0;
};

class CompletionQueue {
 public:
  /// Push a completion. If an event callback is registered it fires
  /// immediately (the simulation's analogue of a CQ event channel);
  /// otherwise the entry waits for poll().
  void push(Completion c) {
    if (callback_) {
      callback_(c);
    } else {
      entries_.push_back(std::move(c));
    }
  }

  std::optional<Completion> poll() {
    if (entries_.empty()) return std::nullopt;
    Completion c = std::move(entries_.front());
    entries_.pop_front();
    return c;
  }

  std::size_t depth() const noexcept { return entries_.size(); }

  void set_callback(std::function<void(const Completion&)> cb) { callback_ = std::move(cb); }

 private:
  std::deque<Completion> entries_;
  std::function<void(const Completion&)> callback_;
};

}  // namespace p4ce::rdma
