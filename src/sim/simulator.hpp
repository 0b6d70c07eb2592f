// Discrete-event simulation kernel: one serial event loop over a single
// simulated clock.
//
// Events run in (when, seq) order: earliest timestamp first, and events
// scheduled for the same instant run in the order they were scheduled. That
// tie-break is the whole determinism contract — identical programs execute
// identical event sequences, so every bench table is reproducible byte for
// byte.
//
// Allocation-light by design: callables are stored in a small-buffer-
// optimized SmallFn (inline storage sized so even packet-carrying lambdas
// fit; larger captures fall back to the heap and bump this simulator's
// `sim.events_alloc` counter), and cancellation uses generation counters in
// a recycled slab of event slots instead of one shared_ptr<bool> per event.
// The priority queue itself holds only 32-byte POD entries.
//
// Each simulator owns the observability context of its run (obs()): the
// metrics, tracer, attribution, sampler and flight recorder every component
// on this clock reports to. It is also the clock that context's sampler
// schedules its ticks on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace p4ce::obs {
struct Context;
}  // namespace p4ce::obs

namespace p4ce::sim {

/// Convenience alias for stored callbacks held by components (timers etc.);
/// the kernel itself type-erases into SmallFn below.
using EventFn = std::function<void()>;

namespace detail {

/// Move-only type-erased callable with inline storage. Sized so the common
/// simulation closures — timer callbacks, and lambdas carrying a whole
/// net::Packet or sw::PacketContext by value — stay allocation-free;
/// anything bigger lives on the heap (counted by Simulator::schedule_at).
class SmallFn {
 public:
  /// The largest capture in the stack: the switch egress hop, `this` plus a
  /// 320 B sw::PacketContext (static_asserts at the packet-carrying call
  /// sites keep this honest).
  static constexpr std::size_t kInlineBytes = 328;

  template <class D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  SmallFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFn>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* slot);
    /// Move-construct the payload from `src` into `dst`, destroying `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* slot) noexcept;
  };

  template <class D>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (*std::launder(reinterpret_cast<D*>(slot)))(); },
        [](void* src, void* dst) noexcept {
          D* from = std::launder(reinterpret_cast<D*>(src));
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* slot) noexcept { std::launder(reinterpret_cast<D*>(slot))->~D(); },
    };
    return &ops;
  }

  template <class D>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (**std::launder(reinterpret_cast<D**>(slot)))(); },
        [](void* src, void* dst) noexcept {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* slot) noexcept { delete *std::launder(reinterpret_cast<D**>(slot)); },
    };
    return &ops;
  }

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace detail

class Simulator;

/// Handle to a scheduled event; allows cancellation (e.g. retransmit timers).
/// A handle is a (slot, generation) ticket into the simulator's event slab:
/// cancel/pending compare generations, so handles to long-fired or recycled
/// slots are always safely inert. Handles must not outlive the Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly.
  void cancel() noexcept;

  bool pending() const noexcept;

 private:
  friend class Simulator;

  EventHandle(Simulator* sim, u32 slot, u64 gen) noexcept : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  u32 slot_ = 0;
  u64 gen_ = 0;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// This run's observability context (metrics, tracer, attribution,
  /// sampler, flight recorder).
  obs::Context& obs() const noexcept { return *obs_; }
  /// Shared ownership of the context, for exporting it after the simulator
  /// is gone.
  const std::shared_ptr<obs::Context>& obs_handle() const noexcept { return obs_; }

  /// Schedule `fn` to run `delay` ns from now (>= 0).
  template <class F>
  EventHandle schedule(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute simulated time `when` (>= now()).
  template <class F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    if constexpr (!detail::SmallFn::fits_inline<std::decay_t<F>>()) events_alloc_.inc();
    return schedule_impl(when, detail::SmallFn(std::forward<F>(fn)));
  }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// (unless stopped earlier).
  void run_until(SimTime deadline);

  /// Run for `span` more nanoseconds of simulated time.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Stop the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  u64 events_executed() const noexcept { return executed_; }
  bool empty() const noexcept { return queue_.empty(); }

  /// Capacity introspection: currently allocated event slots (high-water of
  /// concurrently outstanding events, recycled forever after).
  std::size_t event_slab_size() const noexcept { return slot_count_; }

 private:
  friend class EventHandle;

  /// One recycled record in the event slab. `gen` is bumped every time the
  /// slot is (re)armed, so queue entries and handles from earlier uses of
  /// the slot can never touch the current occupant.
  struct EventSlot {
    detail::SmallFn fn;
    u64 gen = 0;
    bool armed = false;
  };
  /// What the priority queue actually orders: plain PODs.
  struct QueueEntry {
    SimTime when;
    u64 seq;
    u32 slot;
    u64 gen;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // The slab grows in fixed-size chunks so slots never move (growth is one
  // chunk allocation, not a realloc that relocates every live callable).
  // 128 slots of ~350 B keep a chunk (~45 KB) below the 256 x 264 B chunk
  // of the 240 B inline buffer; a busy cluster peaks near 100 slots.
  static constexpr u32 kSlabChunkShift = 7;
  static constexpr u32 kSlabChunkSlots = 1u << kSlabChunkShift;

  EventSlot& slot_at(u32 index) noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }
  const EventSlot& slot_at(u32 index) const noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }

  EventHandle schedule_impl(SimTime when, detail::SmallFn fn);
  bool step();  // execute the earliest event; false if the queue is empty
  void cancel_event(u32 slot, u64 gen) noexcept;
  bool event_pending(u32 slot, u64 gen) const noexcept;

  std::shared_ptr<obs::Context> obs_;
  obs::Counter& events_alloc_;  ///< `sim.events_alloc`: heap-stored callables
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue_;
  std::vector<std::unique_ptr<EventSlot[]>> slab_;
  u32 slot_count_ = 0;
  std::vector<u32> free_slots_;
  SimTime now_ = 0;
  u64 next_seq_ = 0;
  u64 executed_ = 0;
  bool stopped_ = false;
};

inline void EventHandle::cancel() noexcept {
  if (sim_ != nullptr) sim_->cancel_event(slot_, gen_);
}

inline bool EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->event_pending(slot_, gen_);
}

/// A repeating timer built on the kernel; reschedules itself until stopped.
/// Used for heartbeats, liveness checks and re-acceleration probes.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, EventFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() noexcept {
    running_ = false;
    handle_.cancel();
  }

  bool running() const noexcept { return running_; }
  Duration period() const noexcept { return period_; }

 private:
  void arm() {
    handle_ = sim_.schedule(period_, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm();
    });
  }

  Simulator& sim_;
  Duration period_;
  EventFn fn_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace p4ce::sim
