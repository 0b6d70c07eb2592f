// Unit tests for the observability layer: the metrics registry (counters,
// gauges, histograms, labels, snapshot, family totals) and the
// consensus-instance tracer (round lifecycle, sampling, PSN wire map,
// Chrome JSON export).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace p4ce::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterRegistersOnceAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("rdma.qp.retransmits");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("rdma.qp.retransmits"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, GaugeTracksHighWater) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("switch.port.backlog_ns");
  g.set(10.0);
  g.set(50.0);
  g.set(20.0);
  EXPECT_DOUBLE_EQ(g.value(), 20.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 50.0);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), 15.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 50.0);
}

TEST(MetricsRegistry, LabelComposesSeriesName) {
  EXPECT_EQ(MetricsRegistry::label("rdma.qp.retransmits", {{"qp", "3"}}),
            "rdma.qp.retransmits{qp=3}");
  EXPECT_EQ(MetricsRegistry::label("switch.port.rx_pkts", {{"sw", "tofino0"}, {"port", "2"}}),
            "switch.port.rx_pkts{sw=tofino0,port=2}");
  EXPECT_EQ(MetricsRegistry::label("plain", {}), "plain");
}

TEST(MetricsRegistry, SnapshotIsSortedAndFindsExactNames) {
  MetricsRegistry reg;
  reg.counter("zzz.last").inc(1);
  reg.counter("aaa.first").inc(2);
  reg.gauge("mmm.middle").set(3.0);
  reg.histogram("consensus.commit_latency_ns").record(1000);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 4u);
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }

  const auto* hit = snap.find("consensus.commit_latency_ns");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, MetricsRegistry::Series::Kind::kHistogram);
  EXPECT_EQ(hit->count, 1u);
  // A prefix names no series.
  EXPECT_EQ(snap.find("consensus."), nullptr);
  EXPECT_EQ(snap.find("nope."), nullptr);
}

TEST(MetricsRegistry, BareCounterIsItsOwnCountPlusItsLabelledChildren) {
  MetricsRegistry reg;
  reg.counter("rdma.nic.dropped").inc(1);
  reg.counter("rdma.nic.dropped", {{"nic", "host0"}}).inc(2);
  reg.counter("rdma.nic.dropped", {{"nic", "host1"}}).inc(4);
  // A longer family name with the same prefix is not a child.
  reg.counter("rdma.nic.dropped_late").inc(8);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("rdma.nic.dropped")->count, 7u);
  EXPECT_EQ(snap.find("rdma.nic.dropped{nic=host0}")->count, 2u);
  EXPECT_EQ(snap.find("rdma.nic.dropped{nic=host1}")->count, 4u);
  EXPECT_EQ(snap.find("rdma.nic.dropped_late")->count, 8u);
  // The registry's own counter keeps its own count.
  EXPECT_EQ(reg.counter("rdma.nic.dropped").value(), 1u);
}

TEST(MetricsRegistry, DeclaredFamilyWithNoChildrenShowsZero) {
  MetricsRegistry reg;
  reg.counter("switch.p4ce.requests_scattered");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].name, "switch.p4ce.requests_scattered");
  EXPECT_EQ(snap.series[0].count, 0u);
}

TEST(MetricsRegistry, SnapshotWithFamiliesStaysSorted) {
  MetricsRegistry reg;
  reg.counter("b.count", {{"x", "2"}}).inc();
  reg.counter("b.count", {{"x", "1"}}).inc();
  reg.counter("b.count_other").inc();
  reg.counter("a.count", {{"x", "1"}}).inc();
  reg.gauge(MetricsRegistry::label("b.level", {{"x", "1"}})).set(1.0);
  reg.histogram("b.lat").record(5);

  const auto snap = reg.snapshot();
  std::vector<std::string> names;
  for (const auto& s : snap.series) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a.count", "a.count{x=1}", "b.count",
                                             "b.count_other", "b.count{x=1}", "b.count{x=2}",
                                             "b.lat", "b.level{x=1}"}));
  // A family with children only gets a bare total; gauges have no rollup.
  EXPECT_EQ(snap.find("a.count")->count, 1u);
  EXPECT_EQ(snap.find("b.count")->count, 2u);
  EXPECT_EQ(snap.find("b.level"), nullptr);
}

TEST(MetricsRegistry, SamplerTakesAColumnForEachLabelledChild) {
  MetricsRegistry reg;
  Sampler sampler(reg);
  sampler.enable(/*period=*/1'000);
  reg.counter("rdma.nic.rx_overflows", {{"nic", "host1"}}).inc(5);
  reg.counter("rdma.nic.rx_overflows", {{"nic", "host2"}}).inc(2);
  sampler.tick(1'000);

  const auto& names = sampler.series_names();
  const auto frame = sampler.frames().at(0);
  const auto column = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return frame.values.at(i);
    }
    ADD_FAILURE() << "no column " << name;
    return -1.0;
  };
  EXPECT_EQ(names.size(), 3u);
  EXPECT_DOUBLE_EQ(column("rdma.nic.rx_overflows{nic=host1}"), 5.0);
  EXPECT_DOUBLE_EQ(column("rdma.nic.rx_overflows{nic=host2}"), 2.0);
  EXPECT_DOUBLE_EQ(column("rdma.nic.rx_overflows"), 7.0);
}

TEST(MetricsRegistry, JsonContainsEverySeries) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.level").set(1.5);
  reg.histogram("c.lat").record(42);
  std::string json;
  append_snapshot_json(json, reg.snapshot());
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.level\""), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
}

TEST(MetricsRegistry, JsonEscapesControlAndQuoteCharacters) {
  std::string out;
  append_json_escaped(out, "a\"b\\c\n");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\"");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  LatencyAttribution sink_;
  Tracer tracer_{sink_};
};

TEST_F(TracerTest, DisabledByDefaultAndHooksAreNoOps) {
  EXPECT_FALSE(tracer_.is_enabled());
  tracer_.begin_round(1, 0);
  tracer_.span(1, "propose", 0, 10);
  tracer_.end_round(1, 20, true);
  EXPECT_EQ(tracer_.event_count(), 0u);
}

TEST_F(TracerTest, RoundLifecycleEmitsRootAndAggregateSpans) {
  tracer_.enable();
  tracer_.begin_round(1, 100);
  tracer_.span(1, "propose", 100, 200, "seq", 1);
  tracer_.on_scatter(1, 300);
  tracer_.on_scatter_copy(1, 320, 0);
  tracer_.on_scatter_copy(1, 340, 1);
  tracer_.on_ack(1, 500, 0);
  tracer_.on_ack(1, 520, 1);
  tracer_.on_quorum(1, 520);
  tracer_.end_round(1, 600, true);

  const std::string json = tracer_.to_chrome_json();
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"propose\""), std::string::npos);
  EXPECT_NE(json.find("\"switch.scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"gather\""), std::string::npos);
  EXPECT_NE(json.find("\"scatter.copy\""), std::string::npos);
  EXPECT_NE(json.find("\"replica.ack\""), std::string::npos);
  EXPECT_NE(json.find("\"gather.quorum\""), std::string::npos);
  EXPECT_NE(json.find("\"committed\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TracerTest, SamplingSkipsUnselectedInstances) {
  tracer_.enable(/*sample_every=*/4);
  EXPECT_FALSE(tracer_.sampled(1));
  EXPECT_FALSE(tracer_.sampled(3));
  EXPECT_TRUE(tracer_.sampled(4));
  EXPECT_TRUE(tracer_.sampled(8));
  EXPECT_FALSE(tracer_.sampled(0));  // 0 is the "no instance" sentinel

  tracer_.begin_round(3, 0);
  tracer_.span(3, "propose", 0, 10);
  tracer_.end_round(3, 20, true);
  EXPECT_EQ(tracer_.event_count(), 0u);

  tracer_.begin_round(4, 0);
  tracer_.span(4, "propose", 0, 10);
  tracer_.end_round(4, 20, true);
  EXPECT_GT(tracer_.event_count(), 0u);
}

TEST_F(TracerTest, WireMapResolvesPsnRange) {
  tracer_.enable();
  tracer_.begin_round(7, 0);
  tracer_.map_wire(7, /*first_psn=*/100, /*npkts=*/3);
  EXPECT_EQ(tracer_.instance_for_psn(99), 0u);
  EXPECT_EQ(tracer_.instance_for_psn(100), 7u);
  EXPECT_EQ(tracer_.instance_for_psn(102), 7u);
  EXPECT_EQ(tracer_.instance_for_psn(103), 0u);
  tracer_.end_round(7, 10, true);
  // The mapping is released with the round.
  EXPECT_EQ(tracer_.instance_for_psn(100), 0u);
}

TEST_F(TracerTest, WireMapHandles24BitPsnWrap) {
  tracer_.enable();
  tracer_.begin_round(9, 0);
  tracer_.map_wire(9, kPsnMask - 1, /*npkts=*/4);  // covers kPsnMask-1 .. 1
  EXPECT_EQ(tracer_.instance_for_psn(kPsnMask - 1), 9u);
  EXPECT_EQ(tracer_.instance_for_psn(kPsnMask), 9u);
  EXPECT_EQ(tracer_.instance_for_psn(0), 9u);
  EXPECT_EQ(tracer_.instance_for_psn(1), 9u);
  EXPECT_EQ(tracer_.instance_for_psn(2), 0u);
  tracer_.end_round(9, 10, true);
}

TEST_F(TracerTest, WireLookupsTakeTheEarliestBegunRoundOnTheQp) {
  tracer_.enable();
  tracer_.begin_round(1, 0);
  tracer_.begin_round(2, 0);
  tracer_.begin_round(3, 0);
  // Round 2 is mapped first, but round 1 began first and overlaps it.
  tracer_.map_wire(2, /*first_psn=*/10, /*npkts=*/4, /*qpn=*/0x100);
  tracer_.map_wire(1, /*first_psn=*/12, /*npkts=*/4, /*qpn=*/0x100);
  tracer_.map_wire(3, /*first_psn=*/10, /*npkts=*/8, /*qpn=*/0);  // any QP
  EXPECT_EQ(tracer_.instance_for_psn(10, 0x100), 2u);
  EXPECT_EQ(tracer_.instance_for_psn(12, 0x100), 1u);
  EXPECT_EQ(tracer_.instance_for_psn(16, 0x100), 3u);
  EXPECT_EQ(tracer_.instance_for_psn(10, 0x200), 3u);
  EXPECT_EQ(tracer_.instance_for_psn(12), 1u);  // QPN 0 matches any mapping
  // Re-mapping a round moves its footprint; ending one releases it.
  tracer_.map_wire(1, /*first_psn=*/40, /*npkts=*/1, /*qpn=*/0x100);
  EXPECT_EQ(tracer_.instance_for_psn(12, 0x100), 2u);
  EXPECT_EQ(tracer_.instance_for_psn(40, 0x100), 1u);
  tracer_.end_round(2, 10, true);
  EXPECT_EQ(tracer_.instance_for_psn(12, 0x100), 3u);
  const auto rounds = tracer_.active_rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].key, 1u);  // in begin order
  EXPECT_EQ(rounds[1].key, 3u);
}

TEST_F(TracerTest, ChromeTraceOrderDoesNotDependOnHookOrder) {
  // Events tied on track, start and duration print in (name, argument)
  // order whichever hook ran first.
  const auto record = [](Tracer& tracer, bool reversed) {
    tracer.enable();
    tracer.begin_round(1, 0);
    for (u32 i = 0; i < 4; ++i) {
      const u32 r = reversed ? 3 - i : i;
      tracer.on_ack(1, 100, r);
      tracer.instant(1, r % 2 == 0 ? "b" : "a", 100);
    }
    tracer.end_round(1, 200, true);
    return tracer.to_chrome_json();
  };
  LatencyAttribution sink_a, sink_b;
  Tracer a(sink_a), b(sink_b);
  EXPECT_EQ(record(a, false), record(b, true));
}

TEST_F(TracerTest, EventBufferIsBounded) {
  tracer_.enable(/*sample_every=*/1, /*max_events=*/4);
  tracer_.begin_round(1, 0);
  for (int i = 0; i < 100; ++i) tracer_.instant(1, "replica.ack", i);
  tracer_.end_round(1, 200, true);
  EXPECT_LE(tracer_.event_count(), 4u);
  EXPECT_TRUE(tracer_.overflowed());
}

TEST_F(TracerTest, ChromeJsonTimesAreMicroseconds) {
  tracer_.enable();
  tracer_.begin_round(1, 1000);          // 1000 ns -> ts 1.000 us
  tracer_.span(1, "propose", 1000, 3500);  // dur 2500 ns -> 2.500 us
  tracer_.end_round(1, 5000, true);
  const std::string json = tracer_.to_chrome_json();
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST_F(TracerTest, ChromeJsonGivesEachRunItsOwnProcess) {
  // Two runs with colliding instance ids (every run's counter starts at 1).
  LatencyAttribution other_sink;
  Tracer other(other_sink);
  for (Tracer* t : {&tracer_, &other}) {
    t->enable();
    t->begin_round(1, 0);
    t->end_round(1, 10, true);
  }
  const std::string json = Tracer::to_chrome_json({&tracer_, &other});
  EXPECT_NE(json.find("\"pid\": 1, \"args\": {\"name\": \"p4ce consensus run 0\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2, \"args\": {\"name\": \"p4ce consensus run 1\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2, \"tid\": 1"), std::string::npos);
}

}  // namespace
}  // namespace p4ce::obs
