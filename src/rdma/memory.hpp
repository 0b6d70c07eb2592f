// RDMA memory registration: regions with virtual addresses, R_keys and
// access permissions, enforced on every one-sided operation exactly as a
// RoCE NIC would ("any attempt to read or write without the right
// permissions, or outside of the memory region, will raise an RDMA error" —
// paper §II-A).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "net/payload.hpp"

namespace p4ce::rdma {

/// Access permissions for a memory region.
enum Access : u32 {
  kAccessLocalWrite = 1u << 0,
  kAccessRemoteRead = 1u << 1,
  kAccessRemoteWrite = 1u << 2,
  kAccessRemoteAtomic = 1u << 3,
};

/// The verbs atomic operations a responder NIC can execute (8-byte words).
enum class AtomicOp : u8 { kCompareSwap, kFetchAdd, kMaskedCompareSwap };

/// Operands of one atomic execution. `compare`/masks are ignored by FAA;
/// the masks are all-ones for plain CAS.
struct AtomicArgs {
  u64 compare = 0;
  u64 swap_add = 0;
  u64 compare_mask = ~0ull;
  u64 swap_mask = ~0ull;
};

/// A registered memory region. Owns its backing bytes: an anonymous page
/// mapping that the kernel zeroes on first touch, so a region costs memory
/// and set-up time only for the pages a run writes or reads. Remote
/// (one-sided) operations go through `remote_write` / `remote_read`, which
/// perform the R_key-independent bounds and permission checks; R_key
/// validation is done by the owning MemoryManager before the region is even
/// found.
class MemoryRegion {
 public:
  MemoryRegion(u64 vaddr, u64 length, RKey rkey, u32 access);
  ~MemoryRegion();

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  u64 vaddr() const noexcept { return vaddr_; }
  u64 length() const noexcept { return data_.size(); }
  RKey rkey() const noexcept { return rkey_; }
  u32 access() const noexcept { return access_; }
  void set_access(u32 access) noexcept { access_ = access; }

  bool contains(u64 vaddr, u64 len) const noexcept {
    return vaddr >= vaddr_ && vaddr + len <= vaddr_ + length() && vaddr + len >= vaddr;
  }

  /// Local (CPU-side) access, no permission checks.
  u8* bytes() noexcept { return data_.data(); }
  const u8* bytes() const noexcept { return data_.data(); }
  std::span<u8> span() noexcept { return data_; }

  /// Write via DMA as the NIC would on an inbound RDMA write. Checks bounds
  /// and kAccessRemoteWrite. Fires the write hook on success.
  Status remote_write(u64 vaddr, BytesView data);

  /// Read via DMA as the NIC would on an inbound RDMA read request, into
  /// one fresh buffer (PayloadRef::filled) that the response packets slice.
  StatusOr<net::PayloadRef> remote_read(u64 vaddr, u64 len) const;

  /// Execute a verbs atomic on the 8-byte word at `vaddr` and return the
  /// original value. Checks kAccessRemoteAtomic, bounds, and the IBTA
  /// 8-byte alignment requirement (kInvalidArgument on a misaligned
  /// target, which the QP NAKs as Invalid Request). The read-modify-write
  /// is indivisible by construction: the simulated NIC executes inbound
  /// packets one at a time, which is exactly the responder-side
  /// serialization real RNICs provide for atomics.
  StatusOr<u64> remote_atomic(AtomicOp op, u64 vaddr, const AtomicArgs& args);

  /// Hook invoked after each successful remote write with (offset, length)
  /// relative to the region base. This is how the simulation models a CPU
  /// polling the region (replica log consumption, mailboxes) without busy
  /// polling the event loop.
  void set_write_hook(std::function<void(u64, u64)> hook) { write_hook_ = std::move(hook); }

 private:
  u64 vaddr_;
  RKey rkey_;
  u32 access_;
  std::span<u8> data_;  // the mapping; empty (and null) for a zero-length region
  std::function<void(u64, u64)> write_hook_;
};

/// Per-host registry of memory regions: allocates virtual addresses and
/// randomly-generated R_keys ("these keys are randomly generated and
/// different on each server" — paper §I).
class MemoryManager {
 public:
  explicit MemoryManager(u64 rng_seed) : rng_(rng_seed) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Register a region of `length` bytes with the given access flags.
  /// The returned reference stays valid for the manager's lifetime.
  MemoryRegion& register_region(u64 length, u32 access);

  /// Deregister; outstanding remote ops against the key will start failing.
  Status deregister(RKey rkey);

  /// R_key lookup, the first check a NIC performs on an inbound request.
  MemoryRegion* find(RKey rkey) noexcept;
  const MemoryRegion* find(RKey rkey) const noexcept;

  /// Full inbound-write path: R_key validation, then bounds/permissions.
  Status remote_write(RKey rkey, u64 vaddr, BytesView data);
  /// Full inbound-read path.
  StatusOr<net::PayloadRef> remote_read(RKey rkey, u64 vaddr, u64 len) const;
  /// Full inbound-atomic path: R_key validation, then the region's checks.
  StatusOr<u64> remote_atomic(AtomicOp op, RKey rkey, u64 vaddr, const AtomicArgs& args);

  std::size_t region_count() const noexcept { return regions_.size(); }

 private:
  Rng rng_;
  u64 next_vaddr_ = 0x0000'1000'0000'0000ull;  // distinct per-host VA space start
  std::unordered_map<RKey, std::unique_ptr<MemoryRegion>> regions_;
};

}  // namespace p4ce::rdma
