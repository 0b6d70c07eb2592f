// Determinism: two clusters built from identical options and driven by the
// same fig5-style workload must commit the same operations in the same
// simulated time and execute the exact same number of kernel events. This
// pins the (when, seq) FIFO tie-break and the allocation-free event core:
// any hidden ordering dependence (pointer order, hash order, recycled-slot
// order) shows up here as a diverging event count. Clusters also share no
// process-wide state, so runs on concurrent threads end as a serial run does.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/cluster.hpp"
#include "obs/context.hpp"
#include "workload/generators.hpp"

namespace p4ce {
namespace {

struct Outcome {
  u64 operations = 0;
  u64 failed = 0;
  Duration elapsed = 0;
  u64 events = 0;
  SimTime end_time = 0;
  u64 leader_tx_bytes = 0;
  u64 attributed_rounds = 0;
  std::size_t frames = 0;
};

/// `observe` arms attribution, the sampler and the flight recorder on the
/// cluster's own context.
Outcome run_fig5_style(consensus::Mode mode, bool observe = false) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = mode;
  auto cluster = core::Cluster::create(options);
  obs::Context& obs = cluster->sim().obs();
  if (observe) {
    obs.tracer.enable_attribution();
    obs.sampler.enable(/*period=*/microseconds(100));
    obs.recorder.enable();
  }
  EXPECT_TRUE(cluster->start());
  const u32 value_size = 512;
  const u32 batch = 16;
  const u64 write_bytes = static_cast<u64>(batch) * consensus::entry_footprint(value_size);
  const auto result = workload::run_batched_goodput(
      *cluster, value_size, batch, workload::safe_window(write_bytes), /*batches=*/300,
      /*warmup=*/50);
  Outcome out;
  out.operations = result.operations;
  out.failed = result.failed;
  out.elapsed = result.elapsed;
  out.events = cluster->sim().events_executed();
  out.end_time = cluster->now();
  out.leader_tx_bytes = cluster->host_tx_wire_bytes(0);
  out.attributed_rounds = obs.attribution.rounds();
  out.frames = obs.sampler.frame_count();
  return out;
}

/// Two runs decided the same protocol outcome with the same kernel events.
void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.leader_tx_bytes, b.leader_tx_bytes);
}

class DeterminismTest : public ::testing::TestWithParam<consensus::Mode> {};

TEST_P(DeterminismTest, IdenticalRunsAreBitForBitEqual) {
  const Outcome first = run_fig5_style(GetParam());
  const Outcome second = run_fig5_style(GetParam());
  EXPECT_GT(first.operations, 0u);
  expect_identical(first, second);
}

// Two clusters built and run at the same time on two threads, as a sweep
// that runs its points in parallel would: each must end exactly as a run on
// its own does.
TEST_P(DeterminismTest, ConcurrentRunsMatchASerialRun) {
  const consensus::Mode mode = GetParam();
  const Outcome serial = run_fig5_style(mode);
  Outcome concurrent[2];
  std::thread first([&] { concurrent[0] = run_fig5_style(mode); });
  std::thread second([&] { concurrent[1] = run_fig5_style(mode); });
  first.join();
  second.join();
  EXPECT_GT(serial.operations, 0u);
  for (const Outcome& run : concurrent) expect_identical(run, serial);
}

INSTANTIATE_TEST_SUITE_P(Modes, DeterminismTest,
                         ::testing::Values(consensus::Mode::kP4ce, consensus::Mode::kMu,
                                           consensus::Mode::kOneSided));

// The guard discipline: with attribution, sampling, and the flight recorder
// all disabled, a run is byte-identical to one where the observability code
// was never built in — same event count included. With them enabled on the
// cluster's context, the sampler adds its own tick events (so the
// executed-event count legitimately grows) but observation never mutates
// protocol state, so every protocol-visible outcome stays bit-for-bit equal.
TEST_P(DeterminismTest, ObservabilityHooksDoNotPerturbTheProtocol) {
  const Outcome baseline = run_fig5_style(GetParam());
  const Outcome observed = run_fig5_style(GetParam(), /*observe=*/true);
  EXPECT_GT(observed.attributed_rounds, 0u);
  EXPECT_GT(observed.frames, 0u);
  const Outcome disabled = run_fig5_style(GetParam());

  // Observed run: protocol outcome untouched (events excluded — the sampler
  // schedules its own ticks).
  EXPECT_EQ(observed.operations, baseline.operations);
  EXPECT_EQ(observed.failed, baseline.failed);
  EXPECT_EQ(observed.elapsed, baseline.elapsed);
  EXPECT_EQ(observed.end_time, baseline.end_time);
  EXPECT_EQ(observed.leader_tx_bytes, baseline.leader_tx_bytes);

  // Disabled run: byte-identical, events and all.
  expect_identical(disabled, baseline);
}

}  // namespace
}  // namespace p4ce
