// Tofino-style stateful registers. The ASIC's register ALUs are powerful but
// constrained: one indexed read-modify-write per packet traversal, and the
// ALU "can only compare a variable with a constant" — comparing two
// variables requires the subtract-underflow trick routed through an identity
// hash (paper §IV-D). This header encodes those constraints as API shape so
// the P4CE data plane is written the way the real P4 program has to be.
#pragma once

#include <cassert>
#include <vector>

#include "common/types.hpp"

namespace p4ce::sw {

/// The "identity hash" module from §IV-D: "a module that simply returns the
/// input value, which can finally be used in a conditional clause". It
/// exists because no cabling connects the ALU's underflow flag to any
/// conditionally-programmable hardware.
constexpr u32 identity_hash(u32 v) noexcept { return v; }

/// Two-variable minimum computed the only way the Tofino can: check whether
/// (a - b) underflows, forward the carry bit through the identity hash, and
/// predicate on the hashed value (which is a comparison against the
/// constant 0 — allowed).
constexpr u32 tofino_min(u32 a, u32 b) noexcept {
  const u32 diff = a - b;                         // wraps on underflow
  const u32 underflow = (diff > a) ? 1u : 0u;     // the ALU's carry-out bit
  const u32 pred = identity_hash(underflow);      // route flag -> usable value
  return pred != 0 ? a : b;                       // compare with constant 0
}

/// A stateful register array as exposed by the Tofino: the data plane gets
/// single-slot read-modify-write operations; the control plane gets
/// slow-path read/write of arbitrary slots.
template <typename T>
class TofinoRegister {
 public:
  explicit TofinoRegister(std::size_t size, T initial = T{}) : slots_(size, initial) {}

  std::size_t size() const noexcept { return slots_.size(); }

  // --- Data-plane register actions (one per packet traversal) -----------

  /// RegisterAction: slot = value.
  void write(std::size_t index, T value) noexcept {
    assert(index < slots_.size());
    slots_[index] = value;
  }

  /// RegisterAction: slot += 1; return the incremented value.
  T increment_read(std::size_t index) noexcept {
    assert(index < slots_.size());
    return ++slots_[index];
  }

  /// RegisterAction: return slot (read-only traversal).
  T read(std::size_t index) const noexcept {
    assert(index < slots_.size());
    return slots_[index];
  }

  /// RegisterAction used by the min-credit pipeline stage: store the packet's
  /// value into the slot and return tofino_min(previous running minimum,
  /// stored value). The packet carries the running minimum in its metadata
  /// as it traverses the per-replica registers "arranged across the whole
  /// length of our pipeline" (§IV-D).
  T store_and_fold_min(std::size_t index, T store, T running_min) noexcept
    requires std::unsigned_integral<T>
  {
    assert(index < slots_.size());
    slots_[index] = store;
    return tofino_min(static_cast<u32>(slots_[index]), static_cast<u32>(running_min));
  }

  /// RegisterAction: fold the slot's current value into the running minimum
  /// without modifying it (stages for replicas other than the ACK sender).
  T fold_min(std::size_t index, T running_min) const noexcept
    requires std::unsigned_integral<T>
  {
    assert(index < slots_.size());
    return tofino_min(static_cast<u32>(slots_[index]), static_cast<u32>(running_min));
  }

  // --- Control-plane (BfRt-style) slow path ------------------------------

  T cp_read(std::size_t index) const {
    assert(index < slots_.size());
    return slots_[index];
  }
  void cp_write(std::size_t index, T value) {
    assert(index < slots_.size());
    slots_[index] = value;
  }
  void cp_clear(T value = T{}) { slots_.assign(slots_.size(), value); }

 private:
  std::vector<T> slots_;
};

}  // namespace p4ce::sw
