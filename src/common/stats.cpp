#include "common/stats.hpp"

#include <cstdio>

namespace p4ce {

double LatencyHistogram::quantile_ns(double q) const noexcept {
  const u64 total = stats_.count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<u64>(q * static_cast<double>(total - 1)) + 1;
  u64 seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Midpoint of the bucket as the representative value.
      const u64 low = bucket_low(i);
      const u64 high = (i + 1 < kBuckets) ? bucket_low(i + 1) : low + 1;
      return static_cast<double>(low + high) / 2.0;
    }
  }
  return stats_.max();
}

void LatencyHistogram::reset() noexcept {
  buckets_.fill(0);
  stats_.reset();
}

std::string si_format(double value, int precision) {
  static constexpr const char* kSuffix[] = {"", "k", "M", "G", "T"};
  int idx = 0;
  double v = value;
  while (std::abs(v) >= 1000.0 && idx < 4) {
    v /= 1000.0;
    ++idx;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%s", precision, v, kSuffix[idx]);
  return buf;
}

}  // namespace p4ce
