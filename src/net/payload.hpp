// PayloadRef: a shared immutable payload buffer plus an [offset, length)
// view into it. This is what lets the simulated fabric forward payload the
// way a Tofino does — headers are rewritten per copy, the payload bytes are
// never touched. QP segmentation slices MTU-sized views out of one WQE
// buffer, and the switch replication engine shares one buffer across all N
// carbon copies; bytes are materialized only at the final DMA into a memory
// region (or by an explicit to_bytes()/copy_to()).
//
// Ownership contract: a PayloadRef never aliases caller-owned mutable
// memory. Construction either takes ownership of a Bytes (move, no copy),
// explicitly copies (copy_of), or fills a fresh buffer once (filled). Once
// inside a PayloadRef the bytes are immutable for the buffer's lifetime, so
// slices and carbon copies are safe to hold across arbitrary simulated time.
//
// A shared payload is recognizable by its address: every carbon copy and
// slice points into the buffer it came from (data()), which is how
// bench/micro_event's scatter shape checks that the switch copies none.
#pragma once

#include <cstddef>
#include <memory>

#include "common/bytes.hpp"

namespace p4ce::net {

class PayloadRef {
 public:
  PayloadRef() noexcept = default;

  /// Take ownership of `bytes` (no byte copy). Implicit so existing
  /// `packet.payload = some_bytes` call sites keep working.
  PayloadRef(Bytes&& bytes);

  /// Materialize an owned copy of `bytes`.
  static PayloadRef copy_of(BytesView bytes);

  /// A fresh `length`-byte buffer, written once by `fill(u8* data)` before
  /// it becomes immutable: buffer and reference count in one allocation.
  template <class Fill>
  static PayloadRef filled(std::size_t length, Fill&& fill) {
    if (length == 0) return {};
    std::shared_ptr<u8[]> buf = std::make_shared_for_overwrite<u8[]>(length);
    fill(buf.get());
    const u8* data = buf.get();
    return PayloadRef(std::shared_ptr<const u8>(std::move(buf), data), 0, length);
  }

  /// A view of [offset, offset+length) sharing this buffer (no copy).
  /// Out-of-range requests are clamped to the view.
  PayloadRef slice(std::size_t offset, std::size_t length) const;

  BytesView view() const noexcept { return buf_ ? BytesView{data(), len_} : BytesView{}; }
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  const u8* data() const noexcept { return buf_ ? buf_.get() + off_ : nullptr; }
  const u8* begin() const noexcept { return data(); }
  const u8* end() const noexcept { return data() + len_; }

  /// Materialize the viewed bytes as an owned vector.
  Bytes to_bytes() const;

  /// Copy up to dst.size() viewed bytes into `dst`; returns the count.
  /// This is the receive-side DMA primitive.
  std::size_t copy_to(std::span<u8> dst) const;

  /// How many PayloadRefs share this buffer (tests / introspection).
  long use_count() const noexcept { return buf_.use_count(); }

  /// Byte-wise equality of the viewed ranges.
  bool operator==(const PayloadRef& other) const noexcept;

 private:
  PayloadRef(std::shared_ptr<const u8> buf, std::size_t off, std::size_t len) noexcept
      : buf_(std::move(buf)), off_(off), len_(len) {}

  /// The buffer's first byte; the control block owns the whole buffer.
  std::shared_ptr<const u8> buf_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace p4ce::net
