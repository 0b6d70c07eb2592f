// Serial CPU cost model: a host core is a FIFO resource; each task occupies
// it for a fixed duration, and its continuation runs when the task
// completes. This is what makes a Mu leader CPU-bound while the P4CE leader
// is not (paper §V-C/§V-D).
#pragma once

#include <algorithm>
#include <utility>

#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace p4ce::sim {

class CpuExecutor {
 public:
  explicit CpuExecutor(Simulator& sim) noexcept : sim_(sim) {}

  CpuExecutor(const CpuExecutor&) = delete;
  CpuExecutor& operator=(const CpuExecutor&) = delete;

  /// Occupy the core for `cost` ns, then run `fn`. Tasks run in submission
  /// order; a saturated core accumulates backlog (queueing latency). `fn`
  /// is stored in the task's event as it is, so a lambda costs no heap
  /// allocation unless it outgrows the kernel's inline buffer.
  template <class F>
  void execute(Duration cost, F&& fn) {
    if (halted_) return;
    const SimTime start = std::max(busy_until_, sim_.now());
    busy_until_ = start + cost;
    busy_ns_ += cost;
    ++tasks_;
    sim_.schedule_at(busy_until_, [this, f = std::forward<F>(fn)]() mutable {
      if (!halted_) f();
    });
  }

  /// Pending work, in ns of CPU time not yet retired.
  Duration backlog() const noexcept { return std::max<Duration>(0, busy_until_ - sim_.now()); }

  /// Total CPU time consumed so far (utilization numerator).
  Duration busy_time() const noexcept { return busy_ns_; }
  u64 tasks_executed() const noexcept { return tasks_; }

  /// Crash-stop: pending and future tasks never run.
  void halt() noexcept { halted_ = true; }

 private:
  Simulator& sim_;
  SimTime busy_until_ = 0;
  Duration busy_ns_ = 0;
  u64 tasks_ = 0;
  bool halted_ = false;
};

}  // namespace p4ce::sim
