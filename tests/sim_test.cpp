// Unit tests for the discrete-event kernel: ordering, cancellation,
// deterministic ties, a golden mixed program, timers, and the serial CPU
// model.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "obs/context.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "switchsim/pipeline.hpp"

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
  // end, the link epoch and the packet by value) and the switch egress
  // hop's (this and a PacketContext) are the largest in the stack.
  net::Packet packet;
  packet.payload = Bytes(64, 0xab);
  u64 delivered = 0;
  const u64 fire_at = static_cast<u64>(sim.now()) + 1;
  sim.schedule(1, [&sim, &delivered, epoch = u64{7}, p = packet]() mutable {
    delivered += p.payload.size() + epoch + static_cast<u64>(sim.now());
  });
  sim.schedule(1, [&delivered, c = sw::PacketContext{}]() mutable {
    delivered += c.packet.payload.size();
  });
  EXPECT_EQ(alloc_counter.value(), before);
  sim.run();
  EXPECT_EQ(delivered, 64u + 7u + fire_at);

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

}  // namespace
}  // namespace p4ce::sim
