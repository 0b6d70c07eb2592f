// Unit tests for the discrete-event kernel: ordering, cancellation,
// deterministic ties, a golden mixed program, a differential check of the
// two-level queue against a plain priority queue, callable lifetimes,
// timers, and the serial CPU model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/packet.hpp"
#include "obs/context.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace {
// Heap allocations made by this test binary; tests read it as a delta.
p4ce::u64 g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC pairs the free() below with the operator new call it inlines into,
// not with the malloc() inside it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace p4ce::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(5, [&] { order.push_back(2); });
  });
  sim.schedule(20, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelAfterFireIsSafe) {
  Simulator sim;
  EventHandle handle = sim.schedule(1, [] {});
  sim.run();
  handle.cancel();  // must not crash
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(100, [&] { ++count; });
  sim.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.schedule(5, [] {});
  sim.run_for(10);
  EXPECT_EQ(sim.now(), 10);
  sim.run_for(10);
  EXPECT_EQ(sim.now(), 20);
}

TEST(PeriodicTimer, FiresRepeatedlyUntilStopped) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.start();
  sim.run_until(55);
  EXPECT_EQ(fires, 5);
  timer.stop();
  sim.run_until(200);
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.start();
  sim.run_until(25);
  timer.stop();
  timer.start();
  sim.run_until(100);
  EXPECT_EQ(fires, 2 + 7);
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] {
    if (++fires == 3) sim.stop();
  });
  timer.start();
  sim.run();
  timer.stop();
  EXPECT_EQ(fires, 3);
}

TEST(CpuExecutor, SerializesTasks) {
  Simulator sim;
  CpuExecutor cpu(sim);
  std::vector<SimTime> completions;
  cpu.execute(100, [&] { completions.push_back(sim.now()); });
  cpu.execute(100, [&] { completions.push_back(sim.now()); });
  cpu.execute(50, [&] { completions.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 100);
  EXPECT_EQ(completions[1], 200);
  EXPECT_EQ(completions[2], 250);
  EXPECT_EQ(cpu.busy_time(), 250);
  EXPECT_EQ(cpu.tasks_executed(), 3u);
}

TEST(CpuExecutor, BacklogReflectsQueuedWork) {
  Simulator sim;
  CpuExecutor cpu(sim);
  cpu.execute(1000, [] {});
  cpu.execute(1000, [] {});
  EXPECT_EQ(cpu.backlog(), 2000);
  sim.run_until(500);
  EXPECT_EQ(cpu.backlog(), 1500);
  sim.run();
  EXPECT_EQ(cpu.backlog(), 0);
}

TEST(CpuExecutor, IdleGapsDoNotAccumulate) {
  Simulator sim;
  CpuExecutor cpu(sim);
  cpu.execute(10, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 10);
  // Schedule more work later; it starts at now, not at old busy_until.
  sim.schedule(100, [&] { cpu.execute(10, [&] { EXPECT_EQ(sim.now(), 120); }); });
  sim.run();
  EXPECT_EQ(sim.now(), 120);
}

TEST(CpuExecutor, HaltDropsPendingTasks) {
  Simulator sim;
  CpuExecutor cpu(sim);
  int ran = 0;
  cpu.execute(10, [&] { ++ran; });
  cpu.execute(10, [&] { ++ran; });
  sim.run_until(15);
  cpu.halt();
  sim.run();
  EXPECT_EQ(ran, 1);
  cpu.execute(10, [&] { ++ran; });  // ignored after halt
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(CpuExecutor, ReentrantExecuteFromARunningTask) {
  Simulator sim;
  CpuExecutor cpu(sim);
  std::vector<std::pair<SimTime, int>> ran;
  // Task 0 submits task 3 behind the two already waiting; task 3, running
  // on an idle core, submits task 4.
  cpu.execute(10, [&] {
    ran.emplace_back(sim.now(), 0);
    cpu.execute(5, [&] {
      ran.emplace_back(sim.now(), 3);
      cpu.execute(0, [&] { ran.emplace_back(sim.now(), 4); });
    });
  });
  cpu.execute(10, [&] { ran.emplace_back(sim.now(), 1); });
  cpu.execute(10, [&] { ran.emplace_back(sim.now(), 2); });
  sim.run();
  EXPECT_EQ(ran, (std::vector<std::pair<SimTime, int>>{{10, 0}, {20, 1}, {30, 2}, {35, 3}, {35, 4}}));
  EXPECT_EQ(cpu.tasks_executed(), 5u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(CpuExecutor, OnlyTheHeadTaskHasAKernelEvent) {
  Simulator sim;
  CpuExecutor cpu(sim);
  int ran = 0;
  for (int i = 0; i < 1000; ++i) cpu.execute(10, [&] { ++ran; });
  EXPECT_EQ(sim.event_slab_size(), 1u);
  sim.run();
  EXPECT_EQ(ran, 1000);
  EXPECT_EQ(sim.now(), 10'000);
  // A running head queues its successor before its own slot is freed.
  EXPECT_EQ(sim.event_slab_size(), 2u);
}

TEST(CpuExecutor, HaltDropsTheWaitingBacklog) {
  Simulator sim;
  CpuExecutor cpu(sim);
  int ran = 0;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  for (int i = 0; i < 100; ++i) cpu.execute(10, [&ran, token] { ran += *token + 1; });
  token.reset();
  sim.run_until(255);  // 25 tasks done, the 26th is the head
  EXPECT_EQ(ran, 25);
  cpu.halt();
  EXPECT_TRUE(watch.expired());  // every waiting task, the head's included
  sim.run();
  EXPECT_EQ(ran, 25);
  EXPECT_EQ(sim.now(), 260);  // only the head's event was left to pop
  cpu.execute(10, [&] { ++ran; });  // ignored after halt
  sim.run();
  EXPECT_EQ(ran, 25);
}

/// The serial core as one kernel event per task, scheduled at submission:
/// the order CpuExecutor's ring must reproduce exactly.
class EventPerTaskCpu {
 public:
  explicit EventPerTaskCpu(Simulator& sim) noexcept : sim_(sim) {}
  template <class F>
  void execute(Duration cost, F&& fn) {
    if (halted_) return;
    busy_until_ = std::max(busy_until_, sim_.now()) + cost;
    sim_.schedule_at(busy_until_, [this, f = std::forward<F>(fn)]() mutable {
      if (!halted_) f();
    });
  }
  void halt() noexcept { halted_ = true; }

 private:
  Simulator& sim_;
  SimTime busy_until_ = 0;
  bool halted_ = false;
};

/// A seeded program of CPU tasks and plain events that tie with them (task
/// costs and event delays of 0-3 ns), submitted from top level and from
/// running tasks and events, with the core halted late in the run.
template <class Cpu>
std::vector<std::pair<SimTime, u32>> run_cpu_program(u64 seed) {
  Simulator sim;
  Cpu cpu(sim);
  Rng rng(seed);
  std::vector<std::pair<SimTime, u32>> fired;
  u32 next_id = 0;
  u32 budget = 4000;
  std::function<void()> spawn;
  std::function<void(u32)> fire = [&](u32 id) {
    fired.emplace_back(sim.now(), id);
    if (id == 3000) cpu.halt();
    spawn();
  };
  spawn = [&] {
    const u64 r = rng.next_below(6);
    if (r < 3 && budget > 0) {
      --budget;
      cpu.execute(static_cast<Duration>(rng.next_below(4)), [&fire, id = next_id++] { fire(id); });
    }
    if (r >= 2 && r < 5 && budget > 0) {
      --budget;
      sim.schedule(static_cast<Duration>(rng.next_below(4)), [&fire, id = next_id++] { fire(id); });
    }
  };
  for (int round = 0; round < 200; ++round) {
    for (u64 i = rng.next_below(4); i > 0; --i) spawn();
    sim.run_until(sim.now() + static_cast<Duration>(rng.next_below(8)));
  }
  sim.run();
  return fired;
}

TEST(CpuExecutor, TasksRunWhereAnEventScheduledAtSubmissionWould) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const auto ring = run_cpu_program<CpuExecutor>(seed);
    const auto reference = run_cpu_program<EventPerTaskCpu>(seed);
    EXPECT_GT(reference.size(), 1000u);
    ASSERT_EQ(ring.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(ring[i], reference[i]) << "at fired event " << i;
    }
  }
}

TEST(Simulator, SlabRecyclesSlotsAcrossWaves) {
  Simulator sim;
  int fired = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 64; ++i) sim.schedule(1, [&] { ++fired; });
    sim.run();
  }
  EXPECT_EQ(fired, 20 * 64);
  // The slab's high-water mark is one wave of concurrently outstanding
  // events, not the cumulative total.
  EXPECT_LE(sim.event_slab_size(), 64u);
}

TEST(Simulator, StaleHandleCannotTouchRecycledSlot) {
  Simulator sim;
  EventHandle old = sim.schedule(1, [] {});
  sim.run();
  // The slot is recycled; the next event very likely reuses it. The stale
  // handle's generation no longer matches, so cancel() must be inert.
  bool fired = false;
  EventHandle fresh = sim.schedule(1, [&] { fired = true; });
  old.cancel();
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledSlotIsReused) {
  Simulator sim;
  EventHandle h = sim.schedule(100, [] {});
  h.cancel();
  bool fired = false;
  sim.schedule(10, [&] { fired = true; });
  EXPECT_EQ(sim.event_slab_size(), 1u);  // the cancelled slot was recycled
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, SmallCapturesDoNotHeapAllocate) {
  Simulator sim;
  const obs::Counter& alloc_counter = sim.obs().metrics.counter("sim.events_alloc");
  const u64 before = alloc_counter.value();
  int x = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(i, [&sim, &x, i] { x += i + static_cast<int>(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(alloc_counter.value(), before);

  // A whole packet rides inline: the link hop's capture (this, the far
  // end, the packet's flight and the packet by value) and the switch
  // ingress hop's (this, the port, the flight and the packet) are the
  // largest in the stack.
  net::Packet packet;
  packet.payload = Bytes(64, 0xab);
  u64 delivered = 0;
  const u64 fire_at = static_cast<u64>(sim.now()) + 1;
  sim.schedule(1, [&sim, &delivered, flight = net::InFlight{.epoch = 7}, p = packet]() mutable {
    delivered += p.payload.size() + flight.epoch + static_cast<u64>(sim.now());
  });
  sim.schedule(1, [&delivered, port = u32{0}, flight = net::InFlight{}, p = packet]() mutable {
    delivered += p.payload.size() + port + flight.epoch;
  });
  EXPECT_EQ(alloc_counter.value(), before);
  sim.run();
  EXPECT_EQ(delivered, 64u + 7u + fire_at + 64u);

  // An oversized capture falls back to the heap — and is counted.
  struct Big {
    unsigned char blob[1024] = {};
  } big;
  bool fired = false;
  sim.schedule(1, [big, &fired] {
    fired = true;
    (void)big;
  });
  EXPECT_EQ(alloc_counter.value(), before + 1);
  sim.run();
  EXPECT_TRUE(fired);
}

/// FNV-1a over the fired sequence of (time, event id) pairs: pins which
/// event ran when, so a changed tie-break shows even at equal timestamps.
u64 hash_fired(const std::vector<std::pair<SimTime, u32>>& fired) {
  u64 h = 0xcbf29ce484222325ull;
  for (const auto& [t, id] : fired) {
    for (u64 word : {static_cast<u64>(t), u64{id}}) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

struct MixedTrace {
  std::size_t fired = 0;
  u64 fired_hash = 0;
  u64 events = 0;
  SimTime end = 0;
};

/// A mixed program: staggered self-rescheduling chains (ids 0-7), a
/// cancellation sweep over one-shot events (ids 100-199), and timer-style
/// reschedules — everything the (when, seq) tie-break orders.
MixedTrace run_mixed_program() {
  Simulator sim;
  std::vector<std::pair<SimTime, u32>> fired;
  std::vector<std::shared_ptr<std::function<void()>>> chains;
  for (u32 c = 0; c < 8; ++c) {
    auto self = std::make_shared<std::function<void()>>();
    auto remaining = std::make_shared<u32>(50);
    *self = [&, self, remaining, c] {
      fired.emplace_back(sim.now(), c);
      if ((*remaining)-- > 0) sim.schedule(3 + (*remaining % 5), [self] { (*self)(); });
    };
    sim.schedule(1 + c, [self] { (*self)(); });
    chains.push_back(self);
  }
  std::vector<EventHandle> handles;
  for (u32 i = 0; i < 100; ++i) {
    handles.push_back(
        sim.schedule((i * 37) % 200 + 1, [&, i] { fired.emplace_back(sim.now(), 100 + i); }));
  }
  for (u32 i = 0; i < handles.size(); i += 3) handles[i].cancel();
  sim.run();
  for (auto& self : chains) *self = nullptr;  // break the keep-alive cycles
  MixedTrace trace;
  trace.fired = fired.size();
  trace.fired_hash = hash_fired(fired);
  trace.events = sim.events_executed();
  trace.end = sim.now();
  return trace;
}

TEST(Simulator, MixedProgramMatchesTheGoldenEventOrder) {
  // Golden values: any change to the (when, seq) tie-break, to cancellation
  // or to slot recycling shows up as a different count, end time or hash.
  const MixedTrace trace = run_mixed_program();
  EXPECT_EQ(trace.fired, 474u);
  EXPECT_EQ(trace.events, 474u);
  EXPECT_EQ(trace.end, 258);
  EXPECT_EQ(trace.fired_hash, 0x5b16cd191253a4e0ull);
}

class EventStormTest : public ::testing::TestWithParam<int> {};

TEST_P(EventStormTest, ManyEventsAllExecuteInOrder) {
  Simulator sim;
  const int n = GetParam();
  SimTime last = -1;
  int executed = 0;
  for (int i = 0; i < n; ++i) {
    sim.schedule((i * 7919) % 1000, [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
      ++executed;
    });
  }
  sim.run();
  EXPECT_EQ(executed, n);
  EXPECT_EQ(sim.events_executed(), static_cast<u64>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventStormTest, ::testing::Values(10, 1000, 50000));

// ---------------------------------------------------------------------------
// Differential check of the two-level queue
// ---------------------------------------------------------------------------

/// The reference model: one std::priority_queue on (when, as_of, seq) with
/// lazy cancellation, under the same run/run_until contract as Simulator.
class ReferenceKernel {
 public:
  using Handle = u32;
  using TieKey = Simulator::TieKey;

  SimTime now() const noexcept { return now_; }

  /// An event due `delay` from now, ordered among its ties as if scheduled
  /// `lead` from now (0 <= lead <= delay).
  Handle schedule(Duration delay, Duration lead, std::function<void()> fn) {
    return schedule_at(now_ + delay, TieKey{now_ + lead, next_seq_++}, std::move(fn));
  }

  /// The place an event scheduled now would take among its ties.
  TieKey reserve_key() { return TieKey{now_, next_seq_++}; }
  Handle schedule_at(SimTime when, TieKey key, std::function<void()> fn) {
    const auto id = static_cast<u32>(fns_.size());
    fns_.push_back(std::move(fn));
    queue_.push(Entry{when, key.as_of, key.seq, id});
    return id;
  }
  TieKey running_key() const noexcept { return running_; }

  void cancel(Handle id) { fns_[id] = nullptr; }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.top().when <= deadline) pop_and_run();
    running_ = kBetweenEvents;
    if (now_ < deadline) now_ = deadline;
  }

  void run() {
    while (!queue_.empty()) pop_and_run();
    running_ = kBetweenEvents;
  }

 private:
  struct Entry {
    SimTime when;
    SimTime as_of;
    u64 seq;
    u32 id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.as_of != b.as_of ? a.as_of > b.as_of : a.seq > b.seq;
    }
  };

  void pop_and_run() {
    const Entry e = queue_.top();
    queue_.pop();
    now_ = e.when;
    std::function<void()> fn = std::move(fns_[e.id]);
    fns_[e.id] = nullptr;
    running_ = TieKey{e.as_of, e.seq};
    if (fn) fn();
  }

  static constexpr TieKey kBetweenEvents{kTimeNever, ~u64{0}};
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::function<void()>> fns_;
  SimTime now_ = 0;
  u64 next_seq_ = 0;
  TieKey running_ = kBetweenEvents;
};

class SimulatorKernel {
 public:
  using Handle = EventHandle;
  using TieKey = Simulator::TieKey;

  SimTime now() const noexcept { return sim_.now(); }
  Handle schedule(Duration delay, Duration lead, std::function<void()> fn) {
    return sim_.schedule_at(sim_.now() + delay, sim_.now() + lead, std::move(fn));
  }
  TieKey reserve_key() { return sim_.reserve_key(); }
  Handle schedule_at(SimTime when, TieKey key, std::function<void()> fn) {
    return sim_.schedule_at(when, key, std::move(fn));
  }
  TieKey running_key() const noexcept { return sim_.running_key(); }
  void cancel(Handle& handle) { handle.cancel(); }
  void run_until(SimTime deadline) { sim_.run_until(deadline); }
  void run() { sim_.run(); }

 private:
  Simulator sim_;
};

/// A seeded random program. Every choice is drawn from one Rng in firing
/// order, so two kernels that fire the same (when, id) sequence make the
/// same choices; the first divergence shows in `fired`.
template <class Kernel>
class RandomProgram {
 public:
  explicit RandomProgram(u64 seed) : rng_(seed) {}

  /// Rounds of top-level scheduling and cancels, each followed by a
  /// run_until; then a final drain.
  void run() {
    for (int round = 0; round < 150; ++round) {
      for (u64 i = rng_.next_below(4); i > 0; --i) add();
      // Now and then a burst of out-of-order events within one microsecond.
      if (rng_.next_below(8) == 0) {
        for (int i = 0; i < 160; ++i) add(static_cast<Duration>(rng_.next_below(1024)));
      }
      if (rng_.next_below(3) == 0) cancel_one();
      if (rng_.next_below(2) == 0) queue_reserved();
      // Deadlines of every scale: many land in an empty gap before the next
      // event, and the next round schedules into that gap.
      kernel_.run_until(kernel_.now() + pick_delay());
      times_.push_back(kernel_.now());
    }
    kernel_.run();
    times_.push_back(kernel_.now());
  }

  const std::vector<std::pair<SimTime, u32>>& fired() const noexcept { return fired_; }
  /// now() after every run_until and after the final drain.
  const std::vector<SimTime>& times() const noexcept { return times_; }

 private:
  Duration pick_delay() {
    switch (rng_.next_below(7)) {
      case 0: return 0;                                          // tie at now()
      case 1: return static_cast<Duration>(rng_.next_below(1024));  // same block
      case 2: return static_cast<Duration>(rng_.next_below(u64{1} << 14));
      case 3: return static_cast<Duration>(rng_.next_below(u64{1} << 24));
      case 4: return 131'072;  // one timer length: many equal timestamps
      case 5: return static_cast<Duration>(u64{1} << rng_.next_below(41));
      default: return static_cast<Duration>(rng_.next_below((u64{1} << 40) + 1));
    }
  }

  /// How far ahead of now an event counts as scheduled: mostly now (an
  /// ordinary event), sometimes later, up to its own time (a NIC's rx
  /// event, ordered as of its packet's arrival). The kernel takes an as_of
  /// ahead of now only within 2^32 - 1 ns of the event's time; ordinary
  /// events scheduled further ahead (up to 2^40 ns) tie with these.
  Duration pick_lead(Duration delay) {
    constexpr u64 kMaxLead = 0xffffffff;
    const u64 d = static_cast<u64>(delay);
    switch (rng_.next_below(6)) {
      case 0: return delay;
      case 1: return static_cast<Duration>(d - std::min(d, rng_.next_below(1024)));
      case 2: return static_cast<Duration>(d - std::min(d, rng_.next_below(kMaxLead + 1)));
      default: return 0;
    }
  }

  void add() { add(pick_delay()); }

  /// Schedule an event now, or (one time in five) reserve its place now and
  /// queue it later on that key, the way a CPU core's backlog and a lazy
  /// retransmit timer do.
  void add(Duration delay) {
    if (budget_ == 0) return;
    --budget_;
    const u32 id = next_id_++;
    if (rng_.next_below(5) == 0) {
      reserved_.push_back(Reserved{kernel_.now() + delay, kernel_.reserve_key(), id});
      return;
    }
    const Duration lead = pick_lead(delay);
    handles_.push_back(kernel_.schedule(delay, lead, [this, id] { on_fire(id); }));
  }

  /// Queue the oldest reserved event on its key; it is dropped if its place
  /// has already passed (an event it ties with, scheduled after it, ran).
  void queue_reserved() {
    if (reserved_.empty()) return;
    const Reserved r = reserved_.front();
    reserved_.erase(reserved_.begin());
    const bool ahead = r.when > kernel_.now() ||
                       (r.when == kernel_.now() && r.key > kernel_.running_key());
    if (!ahead) return;
    handles_.push_back(kernel_.schedule_at(r.when, r.key, [this, id = r.id] { on_fire(id); }));
  }

  /// Cancel one of the 64 most recent events (pending or not): those are
  /// spread over the near heap and the far buckets alike.
  void cancel_one() {
    if (handles_.empty()) return;
    const u64 back = rng_.next_below(std::min<u64>(handles_.size(), 64));
    kernel_.cancel(handles_[handles_.size() - 1 - back]);
  }

  void on_fire(u32 id) {
    fired_.emplace_back(kernel_.now(), id);
    const u64 r = rng_.next_below(8);
    if (r < 5) add();  // nested scheduling from a callback
    if (r < 2) add();
    if (r == 7) cancel_one();
    if (r % 2 == 0) queue_reserved();
  }

  struct Reserved {
    SimTime when;
    typename Kernel::TieKey key;
    u32 id;
  };

  Kernel kernel_;
  Rng rng_;
  u32 budget_ = 6000;
  u32 next_id_ = 0;
  std::vector<Reserved> reserved_;
  std::vector<typename Kernel::Handle> handles_;
  std::vector<std::pair<SimTime, u32>> fired_;
  std::vector<SimTime> times_;
};

TEST(Simulator, QueueMatchesAPlainPriorityQueue) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    RandomProgram<SimulatorKernel> sim(seed);
    RandomProgram<ReferenceKernel> ref(seed);
    sim.run();
    ref.run();
    ASSERT_EQ(sim.fired().size(), ref.fired().size());
    for (std::size_t i = 0; i < ref.fired().size(); ++i) {
      ASSERT_EQ(sim.fired()[i], ref.fired()[i]) << "at fired event " << i;
    }
    EXPECT_EQ(sim.times(), ref.times());
    EXPECT_GT(ref.fired().size(), 1000u);
  }
}

TEST(Simulator, AsOfOrdersAnEventAmongItsTiesAsIfScheduledThen) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::TieKey> keys;
  sim.schedule_at(10, 8, [&] {
    order.push_back(0);
    keys.push_back(sim.running_key());
  });
  sim.schedule_at(10, [&] { order.push_back(1); });  // as of 0
  sim.schedule_at(5, [&] { sim.schedule_at(10, [&] { order.push_back(2); }); });
  sim.schedule_at(9, [&] { sim.schedule_at(10, [&] { order.push_back(3); }); });
  EXPECT_EQ(sim.next_seq(), 4u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(keys, (std::vector<Simulator::TieKey>{{8, 0}}));
  EXPECT_GT(sim.running_key(), (Simulator::TieKey{kTimeNever - 1, 0}));  // between events
}

TEST(Simulator, RunUntilLeavesTheGapBeforeTheNextEventOpen) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule(1 << 20, [&] { fired.push_back(sim.now()); });
  sim.run_until(100);  // nothing due; the clock stops in the gap
  sim.schedule(10, [&] { fired.push_back(sim.now()); });
  sim.schedule(0, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 110, 1 << 20}));
}

// ---------------------------------------------------------------------------
// Callable lifetimes
// ---------------------------------------------------------------------------

TEST(Simulator, RunningEventMayCancelItselfAndGrowTheSlab) {
  Simulator sim;
  EventHandle self;
  auto make_pattern = [] {
    std::array<u64, 32> pattern{};
    for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    return pattern;
  };
  int children = 0;
  bool intact = false;
  bool pending_inside = true;
  self = sim.schedule(5, [&, pattern = make_pattern()] {
    pending_inside = self.pending();
    self.cancel();  // inert: the event is already running
    // More events than one slab chunk holds, each with a capture of its
    // own: the running callable's slot must neither move nor be reused.
    for (u64 i = 0; i < 300; ++i) {
      std::array<u64, 32> other{};
      other.fill(i);
      sim.schedule(1, [&children, other, i] { children += other[31] == i ? 1 : 0; });
    }
    intact = pattern == make_pattern();
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_TRUE(intact);
  EXPECT_EQ(children, 300);
  EXPECT_GT(sim.event_slab_size(), 128u);
  EXPECT_EQ(sim.events_executed(), 301u);
}

TEST(Simulator, CapturesAreDestroyedAfterTheCallbackReturns) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  bool alive_inside = false;
  bool alive_next = true;
  sim.schedule(1, [&, token = std::move(token)] { alive_inside = !watch.expired(); });
  sim.schedule(1, [&] { alive_next = !watch.expired(); });  // same instant, runs next
  sim.run();
  EXPECT_TRUE(alive_inside);
  EXPECT_FALSE(alive_next);

  // A cancelled event frees its captures at once.
  auto pinned = std::make_shared<int>(0);
  const std::weak_ptr<int> pinned_watch = pinned;
  EventHandle handle = sim.schedule(10, [pinned = std::move(pinned)] {});
  EXPECT_FALSE(pinned_watch.expired());
  handle.cancel();
  EXPECT_TRUE(pinned_watch.expired());
}

TEST(CpuExecutor, TaskCapturingBytesAndAFunctionDoesNotAllocate) {
  Simulator sim;
  CpuExecutor cpu(sim);
  u64 seen = 0;
  // Both captures are built (and allocate) before the count starts; the
  // task itself must move them into its event without allocating.
  auto submit = [&] {
    Bytes bytes(64, 0xab);
    std::function<void(u64)> done = [&seen, pad = std::array<u64, 4>{}](u64 n) {
      seen += n + pad[0];
    };
    const u64 before = g_allocations;
    cpu.execute(100, [bytes = std::move(bytes), done = std::move(done)] { done(bytes.size()); });
    sim.run();
    return g_allocations - before;
  };
  submit();  // warm-up: sizes the slab, the queue and the free list
  EXPECT_EQ(submit(), 0u);
  EXPECT_EQ(seen, 128u);
}

}  // namespace
}  // namespace p4ce::sim
