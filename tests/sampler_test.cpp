// Time-series telemetry and the fault flight recorder: sampler frames and
// column alignment, ring bounding, multi-run JSON export (epoch = run index,
// null padding), the ticks an enabled sampler schedules on its simulator,
// trigger rate limiting, and the capture content a fault freezes.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/time.hpp"
#include "core/cluster.hpp"
#include "obs/context.hpp"
#include "sim/simulator.hpp"

namespace p4ce {
namespace {

using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::Sampler;

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override { sampler_.enable(/*period=*/1'000, /*capacity=*/8); }
  MetricsRegistry reg_;
  Sampler sampler_{reg_};
};

TEST_F(SamplerTest, TickSnapshotsCountersGaugesAndHistogramCounts) {
  auto& reg = reg_;
  reg.counter("t.count").inc(3);
  reg.gauge("t.level").set(2.5);
  reg.histogram("t.lat").record(100);
  reg.histogram("t.lat").record(200);

  sampler_.tick(5'000);
  ASSERT_EQ(sampler_.frame_count(), 1u);
  const auto frames = sampler_.frames();
  EXPECT_EQ(frames[0].at, 5'000);

  const auto& names = sampler_.series_names();
  double count = -1, level = -1, lat = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "t.count") count = frames[0].values[i];
    if (names[i] == "t.level") level = frames[0].values[i];
    if (names[i] == "t.lat") lat = frames[0].values[i];
  }
  EXPECT_DOUBLE_EQ(count, 3.0);
  EXPECT_DOUBLE_EQ(level, 2.5);
  EXPECT_DOUBLE_EQ(lat, 2.0);  // histograms sample their cumulative count
}

TEST_F(SamplerTest, RingIsBoundedAndKeepsTheNewestFrames) {
  reg_.counter("t.count");
  for (SimTime t = 0; t < 20; ++t) sampler_.tick(t * 100);
  EXPECT_EQ(sampler_.frame_count(), 8u);  // capacity from SetUp
  const auto frames = sampler_.frames();
  EXPECT_EQ(frames.front().at, 1'200);  // oldest surviving frame
  EXPECT_EQ(frames.back().at, 1'900);
}

TEST_F(SamplerTest, LateRegisteredSeriesExtendColumnsWithoutShiftingOldOnes) {
  reg_.counter("b.count").inc();
  sampler_.tick(100);
  reg_.counter("a.count").inc(7);  // registered between ticks
  sampler_.tick(200);

  const auto& names = sampler_.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names.back(), "a.count");  // appended, never reshuffled
  const auto frames = sampler_.frames();
  ASSERT_EQ(frames[0].values.size(), 1u);  // pre-registration frame is short
  ASSERT_EQ(frames[1].values.size(), 2u);
  EXPECT_DOUBLE_EQ(frames[1].values.back(), 7.0);

  // Export pads the short frame with null, keeping rows column-aligned.
  std::string json;
  sampler_.append_json(json);
  EXPECT_NE(json.find("\"p4ce-series-v1\""), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.count\""), std::string::npos);
}

TEST_F(SamplerTest, LastFramesReturnsTheTrailingWindowOldestFirst) {
  reg_.counter("t.count");
  for (SimTime t = 1; t <= 5; ++t) sampler_.tick(t * 10);
  const auto last = sampler_.last_frames(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].at, 40);
  EXPECT_EQ(last[1].at, 50);
  EXPECT_EQ(sampler_.last_frames(99).size(), 5u);
}

TEST_F(SamplerTest, MultiRunExportUnionsColumnsAndStampsTheRunIndex) {
  // Two runs whose clocks both start at 0 and whose series only overlap.
  reg_.counter("shared.count").inc(1);
  reg_.counter("first.only").inc(2);
  sampler_.tick(100);
  MetricsRegistry other_reg;
  Sampler other(other_reg);
  other.enable(/*period=*/1'000);
  other_reg.counter("shared.count").inc(3);
  other_reg.counter("second.only").inc(4);
  other.tick(100);

  std::string json;
  Sampler::append_json(json, {&sampler_, &other});
  // Union of the columns, in order of first appearance.
  EXPECT_NE(json.find("\"series\": [\"first.only\", \"shared.count\", \"second.only\"]"),
            std::string::npos)
      << json;
  // [t_ns, epoch=run index, first.only, shared.count, second.only]
  EXPECT_NE(json.find("[100, 0, 2, 1, null]"), std::string::npos) << json;
  EXPECT_NE(json.find("[100, 1, null, 3, 4]"), std::string::npos) << json;
}

TEST(SamplerClock, EnableAloneTicksOnTheSimulatorUntilDisabled) {
  sim::Simulator sim;
  Sampler& sampler = sim.obs().sampler;
  sim.run_for(2'500);
  sampler.enable(/*period=*/1'000, /*capacity=*/8);  // first tick at 3500
  sim.run_for(5'000);  // ticks at 3500..7500
  ASSERT_EQ(sampler.frame_count(), 5u);
  EXPECT_EQ(sampler.frames().front().at, 3'500);
  EXPECT_EQ(sampler.frames().back().at, 7'500);
  sampler.disable();
  sim.run_for(5'000);  // the pending tick fires once more and stops re-arming
  EXPECT_EQ(sampler.frame_count(), 5u);
  EXPECT_TRUE(sim.empty());
}

TEST(SamplerClock, ReEnablingRestartsOneTickChain) {
  sim::Simulator sim;
  Sampler& sampler = sim.obs().sampler;
  sampler.enable(/*period=*/1'000);
  sim.run_for(500);
  sampler.enable(/*period=*/1'000);  // drops frames; the old chain stops
  sim.run_for(3'000);  // ticks at 1500, 2500, 3500 only
  EXPECT_EQ(sampler.frame_count(), 3u);
  EXPECT_EQ(sampler.frames().front().at, 1'500);
}

TEST(SamplerClock, StandaloneContextNeverSchedules) {
  obs::Context obs;
  obs.sampler.enable(/*period=*/1'000);
  EXPECT_EQ(obs.sampler.frame_count(), 0u);
  obs.sampler.tick(42);  // ticked by hand
  ASSERT_EQ(obs.sampler.frame_count(), 1u);
  EXPECT_EQ(obs.sampler.frames()[0].at, 42);
}

TEST(SamplerClock, ContextOutlivesItsSimulatorWithATickPending) {
  std::shared_ptr<obs::Context> kept;
  {
    sim::Simulator sim;
    kept = sim.obs_handle();
    kept->sampler.enable(/*period=*/1'000);
    sim.run_for(2'500);
    EXPECT_FALSE(sim.empty());  // the tick at 3000 dies with the simulator
  }
  EXPECT_EQ(kept->sampler.frame_count(), 2u);
  kept->sampler.enable(/*period=*/1'000);  // must not schedule on the dead simulator
  kept->sampler.tick(7);
  EXPECT_EQ(kept->sampler.frame_count(), 1u);
  kept.reset();  // nothing to cancel on destruction
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    recorder_.enable(/*max_captures=*/4, /*frame_window=*/2, /*min_gap=*/1'000);
  }
  obs::Context obs_;
  FlightRecorder& recorder_ = obs_.recorder;
};

TEST_F(FlightTest, TriggerFreezesTelemetryAndInFlightRounds) {
  auto& sampler = obs_.sampler;
  sampler.enable(/*period=*/100, /*capacity=*/16);
  obs_.metrics.counter("t.count").inc();
  for (SimTime t = 1; t <= 5; ++t) sampler.tick(t * 100);

  auto& tracer = obs_.tracer;
  tracer.enable();
  tracer.begin_round(obs::trace_key(1, 9), 400);

  ASSERT_TRUE(recorder_.trigger("leader_failover", 540, "term", 3));
  ASSERT_EQ(recorder_.capture_count(), 1u);
  const auto& cap = recorder_.captures()[0];
  EXPECT_EQ(cap.kind, "leader_failover");
  EXPECT_EQ(cap.at, 540);
  EXPECT_EQ(cap.detail_name, "term");
  EXPECT_EQ(cap.detail, 3u);
  // frame_window=2: only the trailing telemetry window is frozen.
  ASSERT_EQ(cap.frames.size(), 2u);
  EXPECT_EQ(cap.frames.front().at, 400);
  EXPECT_LE(cap.frames.front().at, cap.at);
  ASSERT_EQ(cap.rounds.size(), 1u);
  EXPECT_EQ(cap.rounds[0].key, obs::trace_key(1, 9));

  tracer.end_round(obs::trace_key(1, 9), 600, false);

  std::string json;
  recorder_.append_json(json);
  EXPECT_NE(json.find("\"p4ce-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"leader_failover\""), std::string::npos);
  EXPECT_NE(json.find("\"term\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds_in_flight\""), std::string::npos);
}

TEST_F(FlightTest, RepeatTriggersOfOneKindAreRateLimited) {
  EXPECT_TRUE(recorder_.trigger("retransmit_timeout", 1'000));
  EXPECT_FALSE(recorder_.trigger("retransmit_timeout", 1'500));  // < min_gap
  EXPECT_TRUE(recorder_.trigger("retransmit_timeout", 2'100));
  // Other kinds have their own limiter.
  EXPECT_TRUE(recorder_.trigger("switch_failure", 1'500));
  EXPECT_EQ(recorder_.capture_count(), 3u);
  EXPECT_EQ(recorder_.dropped(), 1u);
}

TEST_F(FlightTest, CaptureCountIsBounded) {
  for (int i = 0; i < 10; ++i) {
    recorder_.trigger("reroute", i * 10'000);
  }
  EXPECT_EQ(recorder_.capture_count(), 4u);  // max_captures from SetUp
  EXPECT_EQ(recorder_.dropped(), 6u);
}

TEST_F(FlightTest, DisabledRecorderIgnoresTriggers) {
  recorder_.disable();
  EXPECT_FALSE(recorder_.is_enabled());
  EXPECT_FALSE(recorder_.trigger("leader_failover", 100));
  EXPECT_EQ(recorder_.capture_count(), 0u);
}

// ---------------------------------------------------------------------------
// End to end: a failover run leaves a flight capture spanning the fault
// ---------------------------------------------------------------------------

TEST(FlightE2E, LeaderCrashProducesACaptureWithTelemetryAroundTheFault) {
  {
    core::ClusterOptions options;
    options.machines = 3;
    options.mode = consensus::Mode::kP4ce;
    options.cal = consensus::Calibration::failover();
    auto cluster = core::Cluster::create(options);
    auto& recorder = cluster->sim().obs().recorder;
    cluster->sim().obs().sampler.enable(/*period=*/microseconds(100), /*capacity=*/4096);
    recorder.enable();
    ASSERT_TRUE(cluster->start(seconds(2)));
    cluster->run_for(milliseconds(5));

    const SimTime killed_at = cluster->now();
    cluster->crash_node(0);  // the leader
    const SimTime deadline = cluster->now() + milliseconds(500);
    while (cluster->leader() == nullptr && cluster->now() < deadline) {
      cluster->run_for(milliseconds(1));
    }
    ASSERT_NE(cluster->leader(), nullptr);

    ASSERT_GE(recorder.capture_count(), 1u);
    bool saw_failover = false;
    for (const auto& cap : recorder.captures()) {
      if (cap.kind != "leader_failover") continue;
      saw_failover = true;
      EXPECT_GT(cap.at, killed_at);
      ASSERT_FALSE(cap.frames.empty());
      // The telemetry window spans the fault: frames from before the crash
      // up to the trigger.
      EXPECT_LT(cap.frames.front().at, killed_at);
      EXPECT_LE(cap.frames.back().at, cap.at);
      EXPECT_FALSE(cap.series.empty());
    }
    EXPECT_TRUE(saw_failover);
  }
}

}  // namespace
}  // namespace p4ce
