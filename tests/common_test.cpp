// Unit tests for the common utilities: PSN arithmetic, time helpers,
// Status/StatusOr, RNG determinism, statistics, and the byte codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce {
namespace {

TEST(PsnMath, AddWrapsAt24Bits) {
  EXPECT_EQ(psn_add(0, 1), 1u);
  EXPECT_EQ(psn_add(kPsnMask, 1), 0u);
  EXPECT_EQ(psn_add(kPsnMask - 1, 3), 1u);
  EXPECT_EQ(psn_add(0x800000, 0x800000), 0u);
}

TEST(PsnMath, DistanceIsSigned) {
  EXPECT_EQ(psn_distance(5, 10), 5);
  EXPECT_EQ(psn_distance(10, 5), -5);
  EXPECT_EQ(psn_distance(0, 0), 0);
  // Across the wrap point the shorter way wins.
  EXPECT_EQ(psn_distance(kPsnMask, 0), 1);
  EXPECT_EQ(psn_distance(0, kPsnMask), -1);
  EXPECT_EQ(psn_distance(kPsnMask - 10, 10), 21);
}

class PsnPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(PsnPropertyTest, DistanceInvertsAdd) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const Psn base = static_cast<Psn>(rng.next_u64()) & kPsnMask;
    const u32 delta = static_cast<u32>(rng.next_below(kPsnMask / 2));
    EXPECT_EQ(psn_distance(base, psn_add(base, delta)), static_cast<i32>(delta));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsnPropertyTest, ::testing::Values(1, 2, 3, 42, 1337));

TEST(Time, UnitsCompose) {
  using namespace literals;
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(7)), 7.0);
}

TEST(Time, SerializationDelayRoundsUp) {
  // 100 Gbit/s: one byte takes 0.08 ns -> rounds up to 1 ns.
  EXPECT_EQ(serialization_delay(1, 100.0), 1);
  // 1250 bytes at 100 Gbit/s = exactly 100 ns.
  EXPECT_EQ(serialization_delay(1250, 100.0), 100);
  EXPECT_EQ(serialization_delay(0, 100.0), 0);
}

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = error(StatusCode::kPermissionDenied, "bad rkey");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(st.to_string().find("bad rkey"), std::string::npos);
}

TEST(StatusOr, HoldsValueOrError) {
  StatusOr<int> ok(42);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);

  StatusOr<int> bad(error(StatusCode::kNotFound, "nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(StreamingStats, MeanMinMaxVariance) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(LatencyHistogram, QuantilesAreOrderedAndBracketed) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) h.record(static_cast<Duration>(rng.next_below(1000000)));
  EXPECT_LE(h.quantile_ns(0.1), h.quantile_ns(0.5));
  EXPECT_LE(h.quantile_ns(0.5), h.quantile_ns(0.99));
  // Log-bucket resolution is ~3%; uniform [0,1e6) => p50 ~ 5e5.
  EXPECT_NEAR(h.p50_ns(), 5e5, 5e4);
  EXPECT_GE(h.max_ns(), h.p99_ns());
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.p50_ns(), 1000, 40);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1000);
}

TEST(LatencyHistogram, ExactBucketsBelowSubBucketCount) {
  // Values below kSub (32) land in unit-wide buckets [v, v+1); the reported
  // quantile is the bucket midpoint, so small recorded values round-trip to
  // within 0.5 ns.
  for (Duration v : {0, 1, 5, 31}) {
    LatencyHistogram h;
    h.record(v);
    EXPECT_DOUBLE_EQ(h.quantile_ns(0.5), static_cast<double>(v) + 0.5) << "value " << v;
  }
}

TEST(LatencyHistogram, PowerOfTwoBucketBoundaries) {
  // A power of two >= 32 starts a fresh sub-bucket: 2^k falls in
  // [2^k, 2^k + 2^(k-5)), whose midpoint is 2^k + 2^(k-6).
  for (int k = 5; k <= 20; ++k) {
    const u64 v = 1ull << k;
    LatencyHistogram h;
    h.record(static_cast<Duration>(v));
    const double width = static_cast<double>(v) / 32.0;
    EXPECT_DOUBLE_EQ(h.quantile_ns(0.5), static_cast<double>(v) + width / 2.0) << "value " << v;
  }
}

TEST(LatencyHistogram, ExtremeQuantilesHitFirstAndLastBucket) {
  LatencyHistogram h;
  h.record(10);
  h.record(1000);
  h.record(100000);
  // q=0 resolves to the lowest non-empty bucket, q=1 to the highest.
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.0), 10.5);
  EXPECT_NEAR(h.quantile_ns(1.0), 100000, 100000 / 32.0);
  // Out-of-range q is clamped rather than reading past the distribution.
  EXPECT_DOUBLE_EQ(h.quantile_ns(-1.0), h.quantile_ns(0.0));
  EXPECT_DOUBLE_EQ(h.quantile_ns(2.0), h.quantile_ns(1.0));
}

TEST(LatencyHistogram, EmptyAndNegativeInputs) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.5), 0.0);
  h.record(-50);  // clamped to 0
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.min_ns(), 0.0);
}

TEST(LatencyHistogram, ResetClearsBucketsAndStats) {
  LatencyHistogram h;
  h.record(1234);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.99), 0.0);
  h.record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.p50_ns(), 7.5);
}

TEST(GoodputMeter, ComputesRates) {
  GoodputMeter m;
  m.start(0);
  m.add(1000);
  m.add(1000);
  m.stop(seconds(1));
  EXPECT_EQ(m.bytes(), 2000u);
  EXPECT_DOUBLE_EQ(m.gigabytes_per_second(), 2000.0 / 1e9);
  EXPECT_DOUBLE_EQ(m.ops_per_second(), 2.0);
}

TEST(GoodputMeter, ElapsedClampsWhenStopNeverCalled) {
  GoodputMeter m;
  m.start(seconds(5));  // stop_ stays 0 < start_
  m.add(1000);
  EXPECT_EQ(m.elapsed(), 0);
  EXPECT_DOUBLE_EQ(m.gigabytes_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(m.ops_per_second(), 0.0);
}

TEST(GoodputMeter, ElapsedClampsWhenStopPrecedesStart) {
  GoodputMeter m;
  m.start(seconds(2));
  m.add(500);
  m.stop(seconds(1));
  EXPECT_EQ(m.elapsed(), 0);
  EXPECT_DOUBLE_EQ(m.ops_per_second(), 0.0);
}

TEST(SiFormat, PicksSuffix) {
  EXPECT_EQ(si_format(2300000.0), "2.30M");
  EXPECT_EQ(si_format(1500.0, 1), "1.5k");
  EXPECT_EQ(si_format(12.0, 0), "12");
}

TEST(ByteCodec, BigEndianRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8be(0xab);
  w.u16be(0x1234);
  w.u32be(0xdeadbeef);
  w.u64be(0x0123456789abcdefull);
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.u8be(), 0xab);
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xdeadbeefu);
  EXPECT_EQ(r.u64be(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodec, NetworkByteOrderOnTheWire) {
  Bytes buf;
  ByteWriter w(buf);
  w.u32be(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(ByteCodec, UnderrunSetsNotOk) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  r.u32be();
  EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, RawSliceAndSkip) {
  Bytes buf = to_bytes("hello world");
  ByteReader r(buf);
  r.skip(6);
  EXPECT_EQ(r.raw(5), to_bytes("world"));
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace p4ce
