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
  store_u64(out + 4, seq);
  store_u64(out + 12, term);
  if (!payload.empty()) std::memcpy(out + kEntryHeaderBytes, payload.data(), payload.size());
  const u64 marker = kEntryHeaderBytes + payload.size();
  out[marker] = kEntryMarker;
  std::memset(out + marker + 1, 0, entry_footprint(payload.size()) - marker - 1);
}
}  // namespace

Bytes encode_entry(u64 seq, u64 term, BytesView payload) {
  Bytes out(entry_footprint(payload.size()));
  write_entry(out.data(), seq, term, payload);
  return out;
}

StatusOr<std::optional<std::pair<u64, Bytes>>> LogWriter::make_room(u64 need, u64 next_seq) {
  if (need + kWrapRecordBytes > region_.length()) {
    return error(StatusCode::kResourceExhausted, "entry larger than log region");
  }
  std::optional<std::pair<u64, Bytes>> wrap;
  if (cursor_ + need + kWrapRecordBytes > region_.length()) {
    // Not enough contiguous space: plant the wrap record and restart. The
    // headroom kept after every entry guarantees the record always fits.
    Bytes record(kWrapRecordBytes, 0);
    store_u32(record.data(), kWrapMarker);
    store_u64(record.data() + 4, next_seq);
    std::memcpy(region_.bytes() + cursor_, record.data(), record.size());
    wrap.emplace(cursor_, std::move(record));
    cursor_ = 0;
  }
  return wrap;
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
  auto wrap = make_room(total, first_seq);
  if (!wrap.is_ok()) return wrap.status();
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
                net::PayloadRef::filled(total, [&](u8* dst) { std::memcpy(dst, out, total); }),
                std::move(wrap.value())};
}

u32 LogReader::poll() {
  assert(!polling_ && "LogReader::poll re-entered from its delivery callback");
  polling_ = true;
  u32 delivered = 0;
  const u8* base = region_.bytes();
  const u64 size = region_.length();
  for (;;) {
    if (cursor_ + 4 > size) {
      cursor_ = 0;
      continue;
    }
    const u32 len = load_u32(base + cursor_);
    if (len == kWrapMarker) {
      // Follow the wrap only if it was written for the entry we are waiting
      // for; a stale marker from a previous lap must be waited out.
      if (cursor_ + kWrapRecordBytes > size) break;
      if (load_u64(base + cursor_ + 4) != last_seq_ + 1) break;
      cursor_ = 0;
      continue;
    }
    if (len > kMaxEntryPayload) break;  // garbage / not yet written
    const u64 footprint = entry_footprint(len);
    if (cursor_ + footprint > size) break;
    const u8* entry = base + cursor_;
    if (entry[kEntryHeaderBytes + len] != kEntryMarker) break;  // incomplete
    const u64 seq = load_u64(entry + 4);
    if (seq != last_seq_ + 1) break;  // stale bytes from a previous lap
    entry_.seq = seq;
    entry_.term = load_u64(entry + 12);
    entry_.payload.assign(entry + kEntryHeaderBytes, entry + kEntryHeaderBytes + len);
    cursor_ += footprint;
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
