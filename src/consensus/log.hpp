// The replicated log: "each server participating in the protocol keeps a
// log of values. The leader appends data to its own as well as the
// replicas' logs. Both the leader and the replicas consume the content of
// their own logs, asynchronously" (§III).
//
// Entry wire format, written with a single RDMA write:
//
//   [u32 length][payload...][u64 term][u64 seq][u8 marker=0x5A]
//
// Entries are 8-byte aligned. RC places a write's packets in PSN order, so
// a trailer naming the seq a reader awaits only shows once everything
// before it has landed: the trailer is the commit record (Mu's canary, made
// safe across laps of the ring). The writer treats the region as a ring and
// restarts at offset zero whenever an append does not fit; a reader that
// finds no next entry at its cursor looks for it at offset zero. DESIGN.md
// §5.2 gives the safety argument.
#pragma once

#include <functional>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "net/payload.hpp"
#include "rdma/memory.hpp"

namespace p4ce::consensus {

inline constexpr u32 kEntryFramingBytes = 20;  // length, then term + seq after the payload
inline constexpr u8 kEntryMarker = 0x5a;
inline constexpr u64 kMaxEntryPayload = 1u << 20;

/// One decoded log entry.
struct LogEntry {
  u64 seq = 0;
  u64 term = 0;
  Bytes payload;
};

/// Size an entry occupies in the log (8-byte aligned).
constexpr u64 entry_footprint(u64 payload_size) noexcept {
  return (kEntryFramingBytes + payload_size + 1 + 7) & ~7ull;
}

/// Serialize an entry into its on-log byte representation.
Bytes encode_entry(u64 seq, u64 term, BytesView payload);

/// Leader-side appender over the local log region. append() writes the
/// entries' bytes into local memory and returns the (offset, encoded bytes)
/// pair the communicator replicates to the same offset on every replica;
/// the bytes are one immutable buffer every replica's write shares.
class LogWriter {
 public:
  explicit LogWriter(rdma::MemoryRegion& region) : region_(region) {}

  struct Append {
    u64 offset = 0;
    net::PayloadRef entry;
  };

  /// Append one or more values as one contiguous byte range replicated with
  /// a single RDMA write (several values: the doorbell-batched path used by
  /// the goodput experiment). Entries get consecutive seqs starting at
  /// `first_seq`. The range starts at offset 0 when it does not fit before
  /// the end of the region.
  StatusOr<Append> append(u64 first_seq, u64 term, std::span<const Bytes> payloads);

  u64 cursor() const noexcept { return cursor_; }
  /// Reposition (new leader adopting a recovered log tail).
  void set_cursor(u64 offset) noexcept { cursor_ = offset; }

 private:
  rdma::MemoryRegion& region_;
  u64 cursor_ = 0;
};

/// Follower-side consumer: parses complete entries out of the region as DMA
/// writes land (driven by the region's write hook) and invokes the delivery
/// callback in order. Also the leader's local delivery path.
///
/// Every delivery decodes into the same reader-owned LogEntry, so the
/// payload buffer is reused rather than allocated per entry: the entry
/// passed to the callback is valid only during that call (copy what must
/// outlive it), and the callback must not call poll() on the same reader.
class LogReader {
 public:
  using DeliverFn = std::function<void(const LogEntry&)>;

  LogReader(rdma::MemoryRegion& region, DeliverFn deliver)
      : region_(region), deliver_(std::move(deliver)) {}

  /// Deliver every complete entry that continues the sequence, at the read
  /// cursor or, when the cursor holds none, at offset zero (the writer
  /// wrapped). Call whenever new bytes may have landed. Returns entries
  /// delivered.
  u32 poll();

  u64 cursor() const noexcept { return cursor_; }
  u64 last_seq() const noexcept { return last_seq_; }
  u64 last_term() const noexcept { return last_term_; }

 private:
  /// The entry at `offset` if it is complete and carries seq last_seq_ + 1;
  /// its payload length goes to `len`.
  const u8* next_entry_at(u64 offset, u32& len) const noexcept;

  rdma::MemoryRegion& region_;
  DeliverFn deliver_;
  LogEntry entry_;  ///< the entry being delivered; its payload keeps its capacity
  bool polling_ = false;
  u64 cursor_ = 0;
  u64 last_seq_ = 0;
  u64 last_term_ = 0;
};

/// The progress record each node exposes for leader recovery: where its log
/// ends and what it has delivered. Lives in its own small MR, readable via
/// RDMA by a candidate ("view change procedure").
struct Progress {
  u64 last_seq = 0;
  u64 last_term = 0;
  u64 tail_offset = 0;

  static constexpr u64 kWireSize = 24;
  void store(rdma::MemoryRegion& region) const;
  static Progress load(const rdma::MemoryRegion& region);
  static Progress parse(BytesView bytes);
};

}  // namespace p4ce::consensus
