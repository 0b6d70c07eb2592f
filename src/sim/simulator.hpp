// Discrete-event simulation kernel: one serial event loop over a single
// simulated clock.
//
// Events run in (when, as_of, seq) order: earliest timestamp first, and
// events due at the same instant run in the order they were scheduled. That
// tie-break is the whole determinism contract — identical programs execute
// identical event sequences, so every bench table is reproducible byte for
// byte. `as_of` is the time an event counts as scheduled at: now() for an
// ordinary event, so among those (as_of, seq) is plain scheduling order. A
// component that schedules an event ahead of the moment it stands for (a
// NIC admitting a packet at send time, see rdma::Nic) passes that moment,
// and the event sorts among its ties as if scheduled then. Work that waits
// outside the queue (a CPU core's backlog, a retransmit deadline) takes its
// place with reserve_key() when it is submitted and enters the queue later
// in that place, so only events that will run, or a wake chasing a moved
// deadline, occupy the queue.
//
// Allocation-light by design: each callable is built in a recycled slab
// slot, in a small-buffer-optimized SmallFn (inline storage sized so even
// packet-carrying lambdas fit; larger captures fall back to the heap and
// bump this simulator's `sim.events_alloc` counter), and runs where it was
// built. Cancellation uses generation counters in those slots instead of
// one shared_ptr<bool> per event.
// The queue holds only 32-byte POD entries, in two levels: a sorted run
// for the current 1024 ns block and radix buckets for everything later
// (see the comment above kBlockShift).
//
// Each simulator owns the observability context of its run (obs()): the
// metrics, tracer, attribution, sampler and flight recorder every component
// on this clock reports to. It is also the clock that context's sampler
// schedules its ticks on.
#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
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

/// Type-erased callable with N bytes of inline storage. Captures that fit
/// are built in place and never touch the heap; anything bigger lives on
/// the heap (Simulator::schedule_at counts those). Moving one moves the
/// held callable (or, for a heap-held one, its pointer).
template <std::size_t N>
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = N;

  template <class D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t);
  }

  SmallFn() noexcept {}  // storage left uninitialized: no zero-fill per slot
  SmallFn(SmallFn&& other) noexcept { take(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~SmallFn() { reset(); }

  /// Replace the held callable with `f`.
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

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
    void (*destroy)(void* slot) noexcept;
    /// Move-construct the callable held at `from` into `to`, then destroy
    /// the one at `from`.
    void (*relocate)(void* to, void* from) noexcept;
  };

  template <class D>
  static D* as(void* slot) noexcept {
    return std::launder(reinterpret_cast<D*>(slot));
  }

  template <class D>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (*as<D>(slot))(); },
        [](void* slot) noexcept { as<D>(slot)->~D(); },
        [](void* to, void* from) noexcept {
          ::new (to) D(std::move(*as<D>(from)));
          as<D>(from)->~D();
        },
    };
    return &ops;
  }

  template <class D>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (**as<D*>(slot))(); },
        [](void* slot) noexcept { delete *as<D*>(slot); },
        [](void* to, void* from) noexcept { ::new (to) D*(*as<D*>(from)); },
    };
    return &ops;
  }

  void take(SmallFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
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

  /// Inline capture budget of an event: the largest captures in the stack
  /// are the link hop and the switch ingress hop, each `this`, a pointer or
  /// index, a 40 B net::InFlight and a 272 B packet.
  static constexpr std::size_t kEventInlineBytes = 328;
  using EventCallable = detail::SmallFn<kEventInlineBytes>;
  /// Whether an event capturing a `D` is stored without a heap allocation
  /// (static_asserts at the packet-carrying call sites keep this honest).
  template <class D>
  static constexpr bool fits_inline() noexcept {
    return EventCallable::fits_inline<D>();
  }

  /// Schedule `fn` to run `delay` ns from now (>= 0).
  template <class F>
  EventHandle schedule(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute simulated time `when` (>= now()).
  template <class F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    return schedule_at(when, now_, std::forward<F>(fn));
  }

  /// schedule_at(), ordered among the events due at `when` as if it had
  /// been scheduled at `as_of` (now() <= as_of <= when; an `as_of` after
  /// now() must lie within kMaxLead of `when`).
  template <class F>
  EventHandle schedule_at(SimTime when, SimTime as_of, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    assert(as_of >= now_ && as_of <= when && "as_of lies between now and when");
    assert((as_of == now_ || when - as_of <= kMaxLead) && "as_of ahead of now but far before when");
    return emplace_and_arm(when, TieKey{as_of, next_seq_++}, std::forward<F>(fn));
  }

  /// Where an event stands among the events due at its instant: by the time
  /// it counts as scheduled at, then by scheduling order.
  struct TieKey {
    SimTime as_of = 0;
    u64 seq = 0;
    friend auto operator<=>(const TieKey&, const TieKey&) = default;
  };

  /// The tie key an event scheduled now would get, taking its seq exactly
  /// as scheduling does: work that waits outside the queue (a CPU backlog,
  /// a retransmit deadline) keeps its place among its ties and enters the
  /// queue later, with schedule_at(when, key, fn).
  TieKey reserve_key() noexcept { return TieKey{now_, next_seq_++}; }

  /// schedule_at(), in the place among the events due at `when` that `key`
  /// reserved: the event runs exactly where one scheduled at reserve time
  /// would. (when, key) must still lie ahead of the running event.
  template <class F>
  EventHandle schedule_at(SimTime when, TieKey key, F&& fn) {
    assert(key.as_of <= now_ && key.seq < next_seq_ && "a key from reserve_key()");
    assert((when > now_ || (when == now_ && key > running_)) && "cannot schedule into the past");
    return emplace_and_arm(when, key, std::forward<F>(fn));
  }
  /// The tie key of the event running now (for an event scheduled more
  /// than kMaxLead before its time, as_of reads as that far before). Between
  /// events (before a run, after one returns) it is after every event's, so
  /// whatever is due at now() counts as done.
  TieKey running_key() const noexcept { return running_; }
  /// The seq the next scheduled event takes.
  u64 next_seq() const noexcept { return next_seq_; }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// (unless stopped earlier).
  void run_until(SimTime deadline);

  /// Run for `span` more nanoseconds of simulated time.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Stop the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  /// Events run so far (this run's `sim.events` counter).
  u64 events_executed() const noexcept { return events_.value(); }
  /// Queue entries popped and skipped because their event was cancelled.
  u64 cancelled_pops() const noexcept { return cancelled_pops_; }
  bool empty() const noexcept {
    return near_head_ == near_.size() && spill_.empty() && far_mask_ == 0;
  }

  /// Capacity introspection: currently allocated event slots (high-water of
  /// concurrently outstanding events, recycled forever after).
  std::size_t event_slab_size() const noexcept { return slot_count_; }

 private:
  friend class EventHandle;

  /// One recycled record in the event slab. `gen` is bumped every time the
  /// slot is (re)armed, so queue entries and handles from earlier uses of
  /// the slot can never touch the current occupant.
  struct EventSlot {
    EventCallable fn;
    u64 gen = 0;
    bool armed = false;
  };
  /// What the queue orders: 32-byte PODs. `lead` is when - as_of, capped
  /// at kMaxLead: a larger lead is an earlier as_of. Only events whose
  /// as_of is the time their seq was taken (ordinary events, and reserved
  /// keys) can reach the cap, and among those as_of order is seq order, so
  /// (when, -lead, seq) orders exactly as (when, as_of, seq).
  struct QueueEntry {
    SimTime when;
    u64 seq;
    u64 gen;
    u32 slot;
    u32 lead;
  };
  static constexpr Duration kMaxLead = 0xffffffff;
  static bool earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.lead != b.lead ? a.lead > b.lead : a.seq < b.seq;
  }
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      return earlier(b, a);
    }
  };

  // The queue is monotone (nothing is scheduled before now()), so it is a
  // radix heap over 1024 ns blocks with a sorted run in front. Entries in
  // the block of the last popped event (`last_block_`) sit in `near_`,
  // sorted on (when, -lead, seq) and consumed from `near_head_`. A new
  // entry mostly carries the largest seq yet, so its place is after every
  // near entry that sorts before it: a short scan back from the tail finds
  // it (an entry with as_of ahead of now can sort after its ties, and one
  // on a reserved key before them). An entry
  // whose place lies more than kMaxShift entries back goes to `spill_`, a
  // binary heap that step() merges with the run, so a burst of out-of-order
  // events in one block stays O(log n) each.
  //
  // A later entry sits in far bucket b, where b is the highest bit in
  // which its block differs from `last_block_`; every entry of a lower
  // bucket is earlier than every entry of a higher one. When the near
  // level runs dry, step() takes the lowest bucket, moves `last_block_` to
  // the block of its earliest entry and redistributes it: that block is
  // sorted into `near_`, the rest drops into lower buckets. A cancelled
  // event's entry stays queued until it is popped and skipped, so the
  // frequently re-armed timers (QP retransmits) keep one wake event
  // instead of cancelling.
  static constexpr u32 kBlockShift = 10;
  static constexpr u32 kFarBuckets = 64;
  static constexpr std::size_t kMaxShift = 64;
  static constexpr std::size_t kKeptBucketEntries = 1024;

  // The slab grows in fixed-size chunks so slots never move: growth is one
  // chunk allocation, not a realloc that relocates every live callable, and
  // step() can run a callable in its slot while that callable schedules
  // more events. 128 slots of about 350 B make a 45 KB chunk.
  static constexpr u32 kSlabChunkShift = 7;
  static constexpr u32 kSlabChunkSlots = 1u << kSlabChunkShift;

  EventSlot& slot_at(u32 index) noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }
  const EventSlot& slot_at(u32 index) const noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }

  /// A free slot; emplace_and_arm() fills and queues it.
  u32 acquire_slot() {
    if (!free_slots_.empty()) {
      const u32 index = free_slots_.back();
      free_slots_.pop_back();
      return index;
    }
    return new_slot();
  }
  /// A never-used slot, growing the slab by a chunk when it is full.
  u32 new_slot();
  template <class F>
  EventHandle emplace_and_arm(SimTime when, TieKey key, F&& fn) {
    if constexpr (!fits_inline<std::decay_t<F>>()) events_alloc_.inc();
    const u32 index = acquire_slot();
    EventSlot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));
    slot.armed = true;
    const u64 gen = ++slot.gen;
    const auto lead = static_cast<u32>(std::min<Duration>(when - key.as_of, kMaxLead));
    push(QueueEntry{when, key.seq, gen, index, lead});
    return EventHandle(this, index, gen);
  }
  void push(const QueueEntry& entry) {
    const u64 block = static_cast<u64>(entry.when) >> kBlockShift;
    if (block != last_block_) {
      push_far(entry, block);
      return;
    }
    std::size_t i = near_.size();
    if (i - near_head_ > kMaxShift && earlier(entry, near_[i - 1 - kMaxShift])) {
      spill_.push_back(entry);
      std::push_heap(spill_.begin(), spill_.end(), Later{});
      return;
    }
    near_.push_back(entry);
    for (; i > near_head_ && earlier(entry, near_[i - 1]); --i) near_[i] = near_[i - 1];
    near_[i] = entry;
  }
  void push_far(const QueueEntry& entry, u64 block);
  /// Move the next block from the far buckets into the (empty) near level;
  /// false, and nothing moves, if there is none or it starts after
  /// `deadline`.
  bool refill(SimTime deadline);
  /// Pop the earliest entry and run its event if it is still armed; false
  /// (and nothing moves) if the queue is empty or its earliest entry is
  /// later than `deadline`.
  bool step(SimTime deadline);
  void cancel_event(u32 slot, u64 gen) noexcept;
  bool event_pending(u32 slot, u64 gen) const noexcept;

  std::shared_ptr<obs::Context> obs_;
  obs::Counter& events_alloc_;  ///< `sim.events_alloc`: heap-stored callables
  obs::Counter& events_;        ///< `sim.events`: events run
  std::vector<QueueEntry> near_;  ///< entries in `last_block_`, sorted from near_head_
  std::size_t near_head_ = 0;
  std::vector<QueueEntry> spill_;  ///< min-heap: the rest of `last_block_`
  std::vector<QueueEntry> far_[kFarBuckets];
  u64 far_mask_ = 0;  ///< bit b set: far_[b] is non-empty
  u64 last_block_ = 0;
  std::vector<std::unique_ptr<EventSlot[]>> slab_;
  u32 slot_count_ = 0;
  std::vector<u32> free_slots_;
  SimTime now_ = 0;
  u64 next_seq_ = 0;
  u64 cancelled_pops_ = 0;
  static constexpr TieKey kBetweenEvents{kTimeNever, ~u64{0}};
  TieKey running_ = kBetweenEvents;
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
