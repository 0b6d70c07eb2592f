#include "rdma/memory.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace p4ce::rdma {

namespace {

// Regions this large get a transparent-huge-page hint. Where the kernel
// grants huge pages, a first touch faults in 2 MiB instead of 4 KiB, so a
// log's first lap takes 512 times fewer page faults inside the run; with
// 4 KiB pages those faults cost measurable host commit rate (DESIGN §5.1).
constexpr u64 kHugePageBytes = u64{2} << 20;

// A private anonymous mapping rather than calloc: its pages are zero until
// touched under any allocator, whereas calloc must memset memory that the
// heap recycles (and a process may tell the heap to recycle everything).
u8* map_zeroed(u64 length) {
  if (length == 0) return nullptr;
  void* p = ::mmap(nullptr, length, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (length >= kHugePageBytes) (void)::madvise(p, length, MADV_HUGEPAGE);
  return static_cast<u8*>(p);
}

}  // namespace

MemoryRegion::MemoryRegion(u64 vaddr, u64 length, RKey rkey, u32 access)
    : vaddr_(vaddr), rkey_(rkey), access_(access), data_(map_zeroed(length), length) {}

MemoryRegion::~MemoryRegion() {
  if (!data_.empty()) ::munmap(data_.data(), data_.size());
}

Status MemoryRegion::remote_write(u64 vaddr, BytesView data) {
  if (!(access_ & kAccessRemoteWrite)) {
    return error(StatusCode::kPermissionDenied, "region not writable by remote peer");
  }
  if (!contains(vaddr, data.size())) {
    return error(StatusCode::kPermissionDenied, "write outside registered region");
  }
  const u64 offset = vaddr - vaddr_;
  std::memcpy(data_.data() + offset, data.data(), data.size());
  if (write_hook_) write_hook_(offset, data.size());
  return Status::ok();
}

StatusOr<net::PayloadRef> MemoryRegion::remote_read(u64 vaddr, u64 len) const {
  if (!(access_ & kAccessRemoteRead)) {
    return error(StatusCode::kPermissionDenied, "region not readable by remote peer");
  }
  if (!contains(vaddr, len)) {
    return error(StatusCode::kPermissionDenied, "read outside registered region");
  }
  const u8* src = data_.data() + (vaddr - vaddr_);
  return net::PayloadRef::filled(len, [&](u8* dst) { std::memcpy(dst, src, len); });
}

StatusOr<u64> MemoryRegion::remote_atomic(AtomicOp op, u64 vaddr, const AtomicArgs& args) {
  if (!(access_ & kAccessRemoteAtomic)) {
    return error(StatusCode::kPermissionDenied, "region does not permit remote atomics");
  }
  if (vaddr % 8 != 0) {
    return error(StatusCode::kInvalidArgument, "atomic target not 8-byte aligned");
  }
  if (!contains(vaddr, 8)) {
    return error(StatusCode::kPermissionDenied, "atomic outside registered region");
  }
  const u64 offset = vaddr - vaddr_;
  u64 original;
  std::memcpy(&original, data_.data() + offset, 8);
  u64 updated = original;
  bool store = false;
  switch (op) {
    case AtomicOp::kCompareSwap:
      store = original == args.compare;
      if (store) updated = args.swap_add;
      break;
    case AtomicOp::kFetchAdd:
      store = true;
      updated = original + args.swap_add;
      break;
    case AtomicOp::kMaskedCompareSwap:
      store = (original & args.compare_mask) == (args.compare & args.compare_mask);
      if (store) updated = (original & ~args.swap_mask) | (args.swap_add & args.swap_mask);
      break;
  }
  if (store && updated != original) {
    std::memcpy(data_.data() + offset, &updated, 8);
    if (write_hook_) write_hook_(offset, 8);
  }
  return original;
}

MemoryRegion& MemoryManager::register_region(u64 length, u32 access) {
  // R_keys are random and unique within the host, like a real RNIC.
  RKey rkey;
  do {
    rkey = rng_.next_u32();
  } while (rkey == 0 || regions_.contains(rkey));

  const u64 vaddr = next_vaddr_;
  // Keep regions page-aligned and non-adjacent so out-of-bounds accesses
  // can never accidentally land in a neighbouring region.
  next_vaddr_ += ((length + 0xfff) & ~0xfffull) + 0x10000;

  auto region = std::make_unique<MemoryRegion>(vaddr, length, rkey, access);
  auto& ref = *region;
  regions_.emplace(rkey, std::move(region));
  return ref;
}

Status MemoryManager::deregister(RKey rkey) {
  return regions_.erase(rkey) ? Status::ok()
                              : error(StatusCode::kNotFound, "no region with this rkey");
}

MemoryRegion* MemoryManager::find(RKey rkey) noexcept {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

const MemoryRegion* MemoryManager::find(RKey rkey) const noexcept {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

Status MemoryManager::remote_write(RKey rkey, u64 vaddr, BytesView data) {
  MemoryRegion* region = find(rkey);
  if (region == nullptr) return error(StatusCode::kPermissionDenied, "invalid R_key");
  return region->remote_write(vaddr, data);
}

StatusOr<net::PayloadRef> MemoryManager::remote_read(RKey rkey, u64 vaddr, u64 len) const {
  const MemoryRegion* region = find(rkey);
  if (region == nullptr) return error(StatusCode::kPermissionDenied, "invalid R_key");
  return region->remote_read(vaddr, len);
}

StatusOr<u64> MemoryManager::remote_atomic(AtomicOp op, RKey rkey, u64 vaddr,
                                           const AtomicArgs& args) {
  MemoryRegion* region = find(rkey);
  if (region == nullptr) return error(StatusCode::kPermissionDenied, "invalid R_key");
  return region->remote_atomic(op, vaddr, args);
}

}  // namespace p4ce::rdma
