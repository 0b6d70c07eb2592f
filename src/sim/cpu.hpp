// Serial CPU cost model: a host core is a FIFO resource; each task occupies
// it for a fixed duration, and its continuation runs when the task
// completes. This is what makes a Mu leader CPU-bound while the P4CE leader
// is not (paper §V-C/§V-D).
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace p4ce::sim {

class CpuExecutor {
 public:
  /// Inline capture budget of a task: the largest submitted today carry
  /// `this`, a payload or a value plus a commit callback, and a few words.
  static constexpr std::size_t kTaskInlineBytes = 96;

  explicit CpuExecutor(Simulator& sim) noexcept : sim_(sim) {}

  CpuExecutor(const CpuExecutor&) = delete;
  CpuExecutor& operator=(const CpuExecutor&) = delete;

  /// Occupy the core for `cost` ns, then run `fn`. Tasks run in submission
  /// order; a saturated core accumulates backlog (queueing latency).
  ///
  /// Only the task at the head of the core has an event in the kernel. The
  /// others wait in a ring with their callable stored inline (no heap
  /// allocation per task) and the tie key reserve_key() gave them at
  /// submission; each head event queues its successor on that key before
  /// running its own task, so every task runs exactly where an event
  /// scheduled at submission would have.
  template <class F>
  void execute(Duration cost, F&& fn) {
    static_assert(Task::Fn::fits_inline<std::decay_t<F>>(),
                  "a CPU task's capture must fit CpuExecutor::kTaskInlineBytes");
    if (halted_) return;
    const SimTime start = std::max(busy_until_, sim_.now());
    busy_until_ = start + cost;
    busy_ns_ += cost;
    ++tasks_;
    const bool idle = ring_.empty();
    Task& task = ring_.emplace_back();
    task.done = busy_until_;
    task.fn.emplace(std::forward<F>(fn));
    if (idle) {
      sim_.schedule_at(busy_until_, [this] { run_head(); });
    } else {
      task.key = sim_.reserve_key();
    }
  }

  /// Pending work, in ns of CPU time not yet retired.
  Duration backlog() const noexcept { return std::max<Duration>(0, busy_until_ - sim_.now()); }

  /// Total CPU time consumed so far (utilization numerator).
  Duration busy_time() const noexcept { return busy_ns_; }
  u64 tasks_executed() const noexcept { return tasks_; }
  /// Slots the waiting-task ring holds now (capacity introspection).
  std::size_t queue_capacity() const noexcept { return ring_.capacity(); }

  /// Crash-stop: pending and future tasks never run. The waiting tasks are
  /// dropped now; the head's event finds the core halted and returns.
  void halt() noexcept {
    halted_ = true;
    ring_.clear();
  }

 private:
  struct Task {
    using Fn = detail::SmallFn<kTaskInlineBytes>;
    SimTime done = 0;
    Simulator::TieKey key;  ///< reserved at submission; unused by the head
    Fn fn;
  };

  void run_head() {
    if (halted_) return;
    // Move the task out first: popping may halve the ring, and the task may
    // submit more, which may double it.
    Task::Fn fn = std::move(ring_.front().fn);
    ring_.pop_front();
    if (!ring_.empty()) {
      const Task& next = ring_.front();
      sim_.schedule_at(next.done, next.key, [this] { run_head(); });
    }
    fn();
  }

  Simulator& sim_;
  Ring<Task> ring_;  ///< submitted, not yet run; the front's event is queued
  SimTime busy_until_ = 0;
  Duration busy_ns_ = 0;
  u64 tasks_ = 0;
  bool halted_ = false;
};

}  // namespace p4ce::sim
