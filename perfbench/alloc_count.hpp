// Heap-allocation counting from outside the library: this benchmark binary
// replaces the global operator new/delete, and the driver marks which part
// of the program is running so every allocation is charged to one scope.
// The simulation is single-threaded (serial kernel), so plain globals are
// enough.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench::alloc {

enum class Scope : std::uint8_t {
  kOther,    ///< set-up, teardown, anything outside the scopes below
  kRunFor,   ///< inside Simulator/Cluster::run_for (the simulator's own work)
  kPropose,  ///< inside Node::propose / propose_batch
  kDriver,   ///< the benchmark's own bookkeeping (excluded from layer counts)
};
inline constexpr std::size_t kScopes = 4;

struct Counts {
  std::uint64_t calls[kScopes] = {};
  std::uint64_t bytes[kScopes] = {};
};

/// Running totals since process start.
const Counts& counts() noexcept;

Scope current() noexcept;

/// Charge allocations to `scope` until destroyed, then restore the previous
/// scope (scopes nest: a propose issued from a commit callback inside
/// run_for is charged to kPropose).
class ScopeGuard {
 public:
  explicit ScopeGuard(Scope scope) noexcept;
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  Scope saved_;
};

}  // namespace perfbench::alloc
