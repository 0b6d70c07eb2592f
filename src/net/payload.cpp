#include "net/payload.hpp"

#include <algorithm>
#include <cstring>

namespace p4ce::net {

PayloadRef::PayloadRef(Bytes&& bytes) {
  if (bytes.empty()) return;
  len_ = bytes.size();
  // The vector moves into the control block; buf_ points at its bytes.
  auto owner = std::make_shared<const Bytes>(std::move(bytes));
  const u8* data = owner->data();
  buf_ = std::shared_ptr<const u8>(std::move(owner), data);
}

PayloadRef PayloadRef::copy_of(BytesView bytes) {
  if (bytes.empty()) return {};
  return PayloadRef(Bytes(bytes.begin(), bytes.end()));
}

PayloadRef PayloadRef::slice(std::size_t offset, std::size_t length) const {
  if (offset >= len_ || length == 0) return {};
  const std::size_t n = std::min(length, len_ - offset);
  return PayloadRef(buf_, off_ + offset, n);
}

Bytes PayloadRef::to_bytes() const {
  const BytesView v = view();
  return Bytes(v.begin(), v.end());
}

std::size_t PayloadRef::copy_to(std::span<u8> dst) const {
  const std::size_t n = std::min(dst.size(), len_);
  if (n == 0) return 0;
  std::memcpy(dst.data(), data(), n);
  return n;
}

bool PayloadRef::operator==(const PayloadRef& other) const noexcept {
  const BytesView a = view();
  const BytesView b = other.view();
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace p4ce::net
