// Streaming statistics and latency histograms used by the benchmark harness.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce {

/// Welford streaming mean/variance plus min/max. O(1) memory.
class StreamingStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  u64 count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double variance() const noexcept { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  void reset() noexcept { *this = StreamingStats{}; }

 private:
  u64 count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-bucketed latency histogram (HdrHistogram-style, ~2.4% bucket
/// resolution) for values in nanoseconds. Fixed memory, O(1) record.
class LatencyHistogram {
 public:
  void record(Duration ns) noexcept {
    if (ns < 0) ns = 0;
    ++buckets_[bucket_index(static_cast<u64>(ns))];
    stats_.add(static_cast<double>(ns));
  }

  u64 count() const noexcept { return stats_.count(); }
  double mean_ns() const noexcept { return stats_.mean(); }
  double min_ns() const noexcept { return stats_.min(); }
  double max_ns() const noexcept { return stats_.max(); }

  /// Approximate quantile (q in [0,1]) in nanoseconds.
  double quantile_ns(double q) const noexcept;

  double p50_ns() const noexcept { return quantile_ns(0.50); }
  double p99_ns() const noexcept { return quantile_ns(0.99); }
  double p999_ns() const noexcept { return quantile_ns(0.999); }

  void reset() noexcept;

 private:
  // 64 exponents x 32 sub-buckets covers [0, 2^64) ns.
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = 64 * kSub;

  static int bucket_index(u64 v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const int sub = static_cast<int>((v >> shift) & (kSub - 1));
    return (msb - kSubBits + 1) * kSub + sub;
  }

  static u64 bucket_low(int idx) noexcept {
    const int exp = idx / kSub;
    const int sub = idx % kSub;
    if (exp == 0) return static_cast<u64>(sub);
    return (static_cast<u64>(kSub + sub)) << (exp - 1);
  }

  std::array<u64, kBuckets> buckets_{};
  StreamingStats stats_;
};

/// Accumulates goodput: useful payload bytes over a measured window.
class GoodputMeter {
 public:
  void start(SimTime now) noexcept { start_ = now; bytes_ = 0; ops_ = 0; }
  void add(u64 payload_bytes) noexcept { bytes_ += payload_bytes; ++ops_; }
  void stop(SimTime now) noexcept { stop_ = now; }

  u64 bytes() const noexcept { return bytes_; }
  u64 operations() const noexcept { return ops_; }
  /// Measured window length, clamped at zero when stop() was never called
  /// (or was called with a time before start()).
  Duration elapsed() const noexcept { return stop_ > start_ ? stop_ - start_ : 0; }

  /// Gigabytes (1e9 bytes) of payload per second.
  double gigabytes_per_second() const noexcept {
    const double secs = to_seconds(elapsed());
    return secs > 0 ? static_cast<double>(bytes_) / 1e9 / secs : 0.0;
  }

  /// Operations (consensus instances) per second.
  double ops_per_second() const noexcept {
    const double secs = to_seconds(elapsed());
    return secs > 0 ? static_cast<double>(ops_) / secs : 0.0;
  }

 private:
  SimTime start_ = 0;
  SimTime stop_ = 0;
  u64 bytes_ = 0;
  u64 ops_ = 0;
};

/// Human-readable engineering notation, e.g. 2300000 -> "2.30M".
std::string si_format(double value, int precision = 2);

}  // namespace p4ce
