#include "consensus/log.hpp"

#include <cassert>
#include <cstring>

namespace p4ce::consensus {

namespace {
u32 load_u32(const u8* p) noexcept {
  u32 v;
  std::memcpy(&v, p, 4);
  return v;
}
u64 load_u64(const u8* p) noexcept {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}
void store_u32(u8* p, u32 v) noexcept { std::memcpy(p, &v, 4); }
void store_u64(u8* p, u64 v) noexcept { std::memcpy(p, &v, 8); }

/// Write one entry's on-log bytes at `out`: entry_footprint() bytes,
/// padding included.
void write_entry(u8* out, u64 seq, u64 term, BytesView payload) noexcept {
  store_u32(out, static_cast<u32>(payload.size()));
  if (!payload.empty()) std::memcpy(out + 4, payload.data(), payload.size());
  u8* const trailer = out + 4 + payload.size();
  store_u64(trailer, term);
  store_u64(trailer + 8, seq);
  trailer[16] = kEntryMarker;
  const u64 used = kEntryFramingBytes + payload.size() + 1;
  std::memset(out + used, 0, entry_footprint(payload.size()) - used);
}
}  // namespace

Bytes encode_entry(u64 seq, u64 term, BytesView payload) {
  Bytes out(entry_footprint(payload.size()));
  write_entry(out.data(), seq, term, payload);
  return out;
}

StatusOr<LogWriter::Append> LogWriter::append(u64 first_seq, u64 term,
                                              std::span<const Bytes> payloads) {
  u64 total = 0;
  for (const auto& p : payloads) {
    if (p.size() > kMaxEntryPayload) {
      return error(StatusCode::kInvalidArgument, "payload too large");
    }
    total += entry_footprint(p.size());
  }
  if (total > region_.length()) {
    return error(StatusCode::kResourceExhausted, "entry larger than log region");
  }
  if (cursor_ + total > region_.length()) cursor_ = 0;
  // Encode straight into the local log, then copy the range out for the
  // replicas into one buffer (one allocation with its reference count).
  const u64 offset = cursor_;
  u8* const out = region_.bytes() + offset;
  u64 at = 0;
  u64 seq = first_seq;
  for (const auto& p : payloads) {
    write_entry(out + at, seq++, term, p);
    at += entry_footprint(p.size());
  }
  cursor_ += total;
  return Append{offset,
                net::PayloadRef::filled(total, [&](u8* dst) { std::memcpy(dst, out, total); })};
}

const u8* LogReader::next_entry_at(u64 offset, u32& len) const noexcept {
  const u64 size = region_.length();
  if (offset + 4 > size) return nullptr;
  const u8* entry = region_.bytes() + offset;
  len = load_u32(entry);
  if (len > kMaxEntryPayload || offset + entry_footprint(len) > size) return nullptr;
  const u8* trailer = entry + 4 + len;
  if (trailer[16] != kEntryMarker || load_u64(trailer + 8) != last_seq_ + 1) return nullptr;
  return entry;
}

u32 LogReader::poll() {
  assert(!polling_ && "LogReader::poll re-entered from its delivery callback");
  polling_ = true;
  u32 delivered = 0;
  for (;;) {
    u32 len = 0;
    const u8* entry = next_entry_at(cursor_, len);
    if (entry == nullptr && cursor_ != 0) {
      // Nothing continues the sequence here: the writer may have wrapped.
      entry = next_entry_at(0, len);
      if (entry != nullptr) cursor_ = 0;
    }
    if (entry == nullptr) break;
    const u8* trailer = entry + 4 + len;
    entry_.seq = load_u64(trailer + 8);
    entry_.term = load_u64(trailer);
    entry_.payload.assign(entry + 4, trailer);
    cursor_ += entry_footprint(len);
    last_seq_ = entry_.seq;
    last_term_ = entry_.term;
    ++delivered;
    deliver_(entry_);
  }
  polling_ = false;
  return delivered;
}

void Progress::store(rdma::MemoryRegion& region) const {
  store_u64(region.bytes(), last_seq);
  store_u64(region.bytes() + 8, last_term);
  store_u64(region.bytes() + 16, tail_offset);
}

Progress Progress::load(const rdma::MemoryRegion& region) {
  Progress p;
  p.last_seq = load_u64(region.bytes());
  p.last_term = load_u64(region.bytes() + 8);
  p.tail_offset = load_u64(region.bytes() + 16);
  return p;
}

Progress Progress::parse(BytesView bytes) {
  Progress p;
  if (bytes.size() >= kWireSize) {
    p.last_seq = load_u64(bytes.data());
    p.last_term = load_u64(bytes.data() + 8);
    p.tail_offset = load_u64(bytes.data() + 16);
  }
  return p;
}

}  // namespace p4ce::consensus
