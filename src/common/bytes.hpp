// Byte-buffer helpers: big-endian (network order) encode/decode primitives
// used by every wire-format codec, and a growable write cursor.
#pragma once

#include <cassert>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace p4ce {

using Bytes = std::vector<u8>;
using BytesView = std::span<const u8>;

/// Appends big-endian fields to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) noexcept : out_(out) {}

  void u8be(u8 v) { out_.push_back(v); }
  void u16be(u16 v) {
    out_.push_back(static_cast<u8>(v >> 8));
    out_.push_back(static_cast<u8>(v));
  }
  void u24be(u32 v) {
    out_.push_back(static_cast<u8>(v >> 16));
    out_.push_back(static_cast<u8>(v >> 8));
    out_.push_back(static_cast<u8>(v));
  }
  void u32be(u32 v) {
    u16be(static_cast<u16>(v >> 16));
    u16be(static_cast<u16>(v));
  }
  void u64be(u64 v) {
    u32be(static_cast<u32>(v >> 32));
    u32be(static_cast<u32>(v));
  }
  void raw(BytesView data) { out_.insert(out_.end(), data.begin(), data.end()); }

  std::size_t size() const noexcept { return out_.size(); }

 private:
  Bytes& out_;
};

/// Reads big-endian fields from a byte span; `ok()` turns false on underrun
/// instead of UB so parsers can validate once at the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  u8 u8be() { return take(1) ? data_[pos_ - 1] : 0; }
  u16 u16be() {
    if (!take(2)) return 0;
    return static_cast<u16>((data_[pos_ - 2] << 8) | data_[pos_ - 1]);
  }
  u32 u24be() {
    if (!take(3)) return 0;
    return (static_cast<u32>(data_[pos_ - 3]) << 16) | (static_cast<u32>(data_[pos_ - 2]) << 8) |
           data_[pos_ - 1];
  }
  u32 u32be() {
    const u32 hi = u16be();
    const u32 lo = u16be();
    return (hi << 16) | lo;
  }
  u64 u64be() {
    const u64 hi = u32be();
    const u64 lo = u32be();
    return (hi << 32) | lo;
  }
  Bytes raw(std::size_t n) {
    if (!take(n)) return {};
    return Bytes(data_.begin() + static_cast<std::ptrdiff_t>(pos_ - n),
                 data_.begin() + static_cast<std::ptrdiff_t>(pos_));
  }
  /// Non-owning window over the next `n` bytes; valid only while the span
  /// passed to the constructor is. Use in parse paths that only inspect
  /// bytes (or copy them exactly once downstream) instead of raw().
  BytesView view(std::size_t n) {
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }
  void skip(std::size_t n) { take(n); }

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  bool take(std::size_t n) noexcept {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Build a Bytes payload from a string-like literal (test/demo helper).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace p4ce
