// Commit-latency attribution: LatencyHistogram percentile edge cases, the
// RoundTiming stage cascade (missing boundaries fold forward so stages
// always sum to the end-to-end latency), the tracer's attribution-only mode
// and domain-namespaced round keys, the QPN-scoped wire map, and an
// end-to-end cluster run producing a well-ordered per-stage report.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "obs/attribution.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p4ce {
namespace {

using obs::LatencyAttribution;
using obs::RoundTiming;
using obs::Tracer;

// ---------------------------------------------------------------------------
// LatencyHistogram percentile edge cases
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramQuantilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50_ns(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99_ns(), 0.0);
  EXPECT_DOUBLE_EQ(h.p999_ns(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(LatencyHistogram, SingleValueOwnsEveryQuantile) {
  LatencyHistogram h;
  h.record(17);  // below the 32-value linear range: buckets are 1 ns wide
  EXPECT_EQ(h.count(), 1u);
  // Every quantile is the one value's bucket (reported at its midpoint).
  const double p50 = h.p50_ns();
  EXPECT_NEAR(p50, 17.0, 1.0);
  EXPECT_DOUBLE_EQ(h.p99_ns(), p50);
  EXPECT_DOUBLE_EQ(h.p999_ns(), p50);
}

TEST(LatencyHistogram, AllEqualValuesCollapseTheDistribution) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(5'000);
  const double p50 = h.p50_ns();
  EXPECT_DOUBLE_EQ(h.p99_ns(), p50);
  EXPECT_DOUBLE_EQ(h.p999_ns(), p50);
  // Log buckets have ~3% resolution; the quantile lands in 5000's bucket.
  EXPECT_NEAR(p50, 5'000.0, 5'000.0 * 0.05);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 5'000.0);
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  for (Duration ns = 100; ns <= 100'000; ns += 100) h.record(ns);
  EXPECT_LE(h.p50_ns(), h.p99_ns());
  EXPECT_LE(h.p99_ns(), h.p999_ns());
  EXPECT_LE(h.p999_ns(), h.max_ns());
}

// ---------------------------------------------------------------------------
// RoundTiming stage cascade
// ---------------------------------------------------------------------------

class AttributionTest : public ::testing::Test {
 protected:
  static double stage_sum(const LatencyAttribution& a) {
    double sum = 0;
    for (u32 s = 0; s < LatencyAttribution::kStageCount; ++s) {
      sum += a.stage(static_cast<LatencyAttribution::Stage>(s)).mean_ns();
    }
    return sum;
  }

  LatencyAttribution attr_;
};

TEST_F(AttributionTest, FullTimelineSplitsIntoAllStages) {
  RoundTiming t;
  t.key = 1;
  t.start = 1'000;
  t.propose_end = 1'300;   // leader.cpu    300
  t.post_end = 1'400;      // leader.post   100
  t.scatter_first = 1'600; // link.to_switch 200
  t.scatter_last = 1'850;  // switch.scatter 250
  t.gather_first = 2'400;  // replica.ack   550
  t.quorum_at = 2'500;     // gather.quorum 100
  t.ack_rx = 2'700;        // link.to_leader 200
  t.end = 2'800;           // commit.cpu    100
  t.committed = true;
  attr_.record_round(t);

  EXPECT_EQ(attr_.rounds(), 1u);
  EXPECT_EQ(attr_.committed(), 1u);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLeaderCpu).mean_ns(), 300.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLeaderPost).mean_ns(), 100.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLinkToSwitch).mean_ns(), 200.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kSwitchScatter).mean_ns(), 250.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kReplicaAck).mean_ns(), 550.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kQuorumGather).mean_ns(), 100.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLinkToLeader).mean_ns(), 200.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kCommitCpu).mean_ns(), 100.0);
  // The stage durations sum to the end-to-end latency...
  EXPECT_DOUBLE_EQ(stage_sum(attr_), 1'800.0);
  EXPECT_DOUBLE_EQ(attr_.total().mean_ns(), 1'800.0);
  // ...and the longest stage is tallied as dominant.
  EXPECT_EQ(attr_.dominant_stage(), LatencyAttribution::kReplicaAck);
  EXPECT_EQ(attr_.dominant_count(LatencyAttribution::kReplicaAck), 1u);
}

TEST_F(AttributionTest, MissingStagesFoldForwardIntoTheNextObservedOne) {
  // A Mu-style round: no switch pipeline, no quorum forwarding timestamps.
  RoundTiming t;
  t.key = 2;
  t.start = 0;
  t.propose_end = 400;
  t.post_end = 500;
  t.gather_first = 2'000;  // scatter_* never observed: wire+replica time
  t.ack_rx = 2'200;        // quorum_at never observed
  t.end = 2'300;
  t.committed = true;
  attr_.record_round(t);

  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLeaderCpu).mean_ns(), 400.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLeaderPost).mean_ns(), 100.0);
  // The unobserved link/switch stages contribute zero; their wall time rolls
  // into replica.ack (post_end -> gather_first).
  EXPECT_EQ(attr_.stage(LatencyAttribution::kLinkToSwitch).count(), 0u);
  EXPECT_EQ(attr_.stage(LatencyAttribution::kSwitchScatter).count(), 0u);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kReplicaAck).mean_ns(), 1'500.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLinkToLeader).mean_ns(), 200.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kCommitCpu).mean_ns(), 100.0);
  EXPECT_DOUBLE_EQ(stage_sum(attr_), 2'300.0);
  EXPECT_DOUBLE_EQ(attr_.total().mean_ns(), 2'300.0);
}

TEST_F(AttributionTest, BareRoundAttributesEverythingToCommitCpu) {
  RoundTiming t;
  t.key = 3;
  t.start = 100;
  t.end = 900;
  attr_.record_round(t);
  EXPECT_EQ(attr_.rounds(), 1u);
  EXPECT_EQ(attr_.committed(), 0u);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kCommitCpu).mean_ns(), 800.0);
  EXPECT_DOUBLE_EQ(stage_sum(attr_), 800.0);
}

TEST_F(AttributionTest, RoundsStartedBeforeTheRecordWindowAreIgnored) {
  attr_.record_from(1'000);  // e.g. a workload's warmup ends at 1 µs
  RoundTiming warmup;
  warmup.start = 999;
  warmup.end = 5'000;
  attr_.record_round(warmup);
  RoundTiming measured;
  measured.start = 1'000;
  measured.end = 1'500;
  attr_.record_round(measured);
  EXPECT_EQ(attr_.rounds(), 1u);
  EXPECT_DOUBLE_EQ(attr_.total().mean_ns(), 500.0);
}

TEST_F(AttributionTest, EmptyReportHasNoDominantStage) {
  EXPECT_EQ(attr_.dominant_stage(), LatencyAttribution::kStageCount);
  std::string json;
  attr_.append_json(json);
  EXPECT_NE(json.find("\"rounds\": 0"), std::string::npos);
}

TEST_F(AttributionTest, JsonReportContainsEveryStage) {
  RoundTiming t;
  t.key = 4;
  t.start = 0;
  t.propose_end = 100;
  t.end = 500;
  t.committed = true;
  attr_.record_round(t);

  std::string json;
  attr_.append_json(json);
  for (u32 s = 0; s < LatencyAttribution::kStageCount; ++s) {
    const auto stage = static_cast<LatencyAttribution::Stage>(s);
    EXPECT_NE(json.find(LatencyAttribution::stage_name(stage)), std::string::npos)
        << LatencyAttribution::stage_name(stage);
  }
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"dominant_stage\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: domain-namespaced keys, attribution-only mode, QPN-scoped wire map
// ---------------------------------------------------------------------------

TEST(TraceKey, NamespacesByDomainAndRoundTrips) {
  EXPECT_EQ(obs::trace_key(0, 42), 42u);  // domain 0 == raw op id
  const u64 key = obs::trace_key(3, 42);
  EXPECT_NE(key, obs::trace_key(0, 42));
  EXPECT_EQ(obs::trace_domain(key), 3u);
  EXPECT_EQ(obs::trace_op(key), 42u);
}

TEST(TracerAttribution, EnableAttributionAloneYieldsANonEmptyReport) {
  obs::Context obs;
  obs.tracer.enable_attribution();  // the only attribution switch
  obs.tracer.begin_round(1, 0);
  obs.tracer.mark_propose_done(1, 100);
  obs.tracer.end_round(1, 400, true);

  EXPECT_EQ(obs.attribution.rounds(), 1u);
  std::string json;
  obs.attribution.append_json(json);
  EXPECT_NE(json.find("\"rounds\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dominant_stage\": \"commit.cpu\""), std::string::npos) << json;
}

class TracerAttributionTest : public ::testing::Test {
 protected:
  LatencyAttribution attr_;
  Tracer tracer_{attr_};
};

TEST_F(TracerAttributionTest, AttributionOnlyModeBuffersNoChromeEvents) {
  tracer_.enable_attribution();
  EXPECT_TRUE(tracer_.is_enabled());
  EXPECT_FALSE(tracer_.events_enabled());
  EXPECT_TRUE(tracer_.attribution_enabled());

  tracer_.begin_round(1, 0);
  tracer_.span(1, "propose", 0, 100);
  tracer_.mark_propose_done(1, 100);
  tracer_.mark_post_done(1, 150);
  tracer_.on_scatter(1, 300);
  tracer_.on_scatter_copy(1, 350, 0);
  tracer_.on_ack(1, 600, 0);
  tracer_.on_quorum(1, 600);
  tracer_.mark_ack_rx(1, 700);
  tracer_.end_round(1, 800, true);

  EXPECT_EQ(tracer_.event_count(), 0u);  // no Chrome events buffered
  ASSERT_EQ(attr_.rounds(), 1u);
  EXPECT_EQ(attr_.committed(), 1u);
  EXPECT_DOUBLE_EQ(attr_.total().mean_ns(), 800.0);
  EXPECT_DOUBLE_EQ(attr_.stage(LatencyAttribution::kLeaderCpu).mean_ns(), 100.0);
}

TEST_F(TracerAttributionTest, SampledOutInstancesLeaveNoTraceButCountersTick) {
  tracer_.enable(/*sample_every=*/4);
  obs::MetricsRegistry reg;
  obs::Counter& proposals = reg.counter("consensus.proposals");

  // Instance 3 is sampled out: its hooks are no-ops end to end.
  proposals.inc();
  tracer_.begin_round(3, 0);
  tracer_.span(3, "propose", 0, 10);
  tracer_.mark_propose_done(3, 10);
  tracer_.end_round(3, 20, true);
  EXPECT_EQ(tracer_.event_count(), 0u);
  EXPECT_TRUE(tracer_.active_rounds().empty());

  // Instance 4 is sampled in.
  proposals.inc();
  tracer_.begin_round(4, 0);
  tracer_.span(4, "propose", 0, 10);
  tracer_.end_round(4, 20, true);
  EXPECT_GT(tracer_.event_count(), 0u);

  // Metrics are decoupled from trace sampling: both proposals counted.
  EXPECT_EQ(proposals.value(), 2u);
}

TEST_F(TracerAttributionTest, SamplingAppliesToTheOpNotTheNamespacedKey) {
  tracer_.enable(/*sample_every=*/10);
  // Domain 2's 10th op must sample exactly like domain 0's, even though the
  // namespaced key (2<<48 | 10) is not itself divisible by 10.
  EXPECT_TRUE(tracer_.sampled(obs::trace_key(0, 10)));
  EXPECT_TRUE(tracer_.sampled(obs::trace_key(2, 10)));
  EXPECT_FALSE(tracer_.sampled(obs::trace_key(2, 11)));
  EXPECT_FALSE(tracer_.sampled(obs::trace_key(2, 0)));  // op 0 stays a sentinel
}

TEST_F(TracerAttributionTest, WireMapDisambiguatesOverlappingPsnWindowsByQpn) {
  tracer_.enable();
  const u64 d0 = obs::trace_key(0, 7);
  const u64 d1 = obs::trace_key(1, 7);
  tracer_.begin_round(d0, 0);
  tracer_.begin_round(d1, 0);
  // Both domains' leaders post PSN 100 — toward different BCast QPs.
  tracer_.map_wire(d0, /*first_psn=*/100, /*npkts=*/2, /*qpn=*/0x100);
  tracer_.map_wire(d1, /*first_psn=*/100, /*npkts=*/2, /*qpn=*/0x200);

  EXPECT_EQ(tracer_.instance_for_psn(100, 0x100), d0);
  EXPECT_EQ(tracer_.instance_for_psn(101, 0x200), d1);
  EXPECT_EQ(tracer_.instance_for_psn(100, 0x300), 0u);  // unknown QP
  tracer_.end_round(d0, 10, true);
  tracer_.end_round(d1, 10, true);
}

TEST_F(TracerAttributionTest, ActiveRoundsExposeInFlightKeys) {
  tracer_.enable();
  tracer_.begin_round(obs::trace_key(1, 5), 1'000);
  tracer_.begin_round(obs::trace_key(0, 6), 2'000);
  const auto rounds = tracer_.active_rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].key, obs::trace_key(1, 5));
  EXPECT_EQ(rounds[0].start, 1'000);
  tracer_.end_round(obs::trace_key(1, 5), 3'000, true);
  tracer_.end_round(obs::trace_key(0, 6), 3'000, true);
  EXPECT_TRUE(tracer_.active_rounds().empty());
}

// ---------------------------------------------------------------------------
// End to end: a real cluster produces an ordered per-stage report
// ---------------------------------------------------------------------------

class ClusterAttributionTest : public ::testing::TestWithParam<consensus::Mode> {};

TEST_P(ClusterAttributionTest, CommittedRoundsProduceStageBreakdown) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = GetParam();
  auto cluster = core::Cluster::create(options);
  cluster->sim().obs().tracer.enable_attribution();
  ASSERT_TRUE(cluster->start());

  int ok = 0;
  for (int k = 0; k < 50; ++k) {
    std::ignore = cluster->leader()->propose(Bytes(64, 0x11),
                                             [&](Status st, u64) { ok += st.is_ok(); });
  }
  cluster->run_for(milliseconds(3));
  ASSERT_EQ(ok, 50);

  const auto& attr = cluster->sim().obs().attribution;
  EXPECT_GE(attr.rounds(), 50u);
  EXPECT_GE(attr.committed(), 50u);
  EXPECT_GT(attr.total().mean_ns(), 0.0);
  EXPECT_LE(attr.total().p50_ns(), attr.total().p99_ns());
  EXPECT_LE(attr.total().p99_ns(), attr.total().p999_ns());
  // Some stage dominated, and the leader CPU stage was always observed.
  EXPECT_NE(attr.dominant_stage(), LatencyAttribution::kStageCount);
  EXPECT_GE(attr.stage(LatencyAttribution::kLeaderCpu).count(), 50u);
  if (GetParam() == consensus::Mode::kP4ce) {
    // Accelerated rounds traverse the switch program.
    EXPECT_GT(attr.stage(LatencyAttribution::kSwitchScatter).count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ClusterAttributionTest,
                         ::testing::Values(consensus::Mode::kP4ce, consensus::Mode::kMu));

}  // namespace
}  // namespace p4ce
