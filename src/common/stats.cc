#include "common/stats.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace imca {
namespace {

int bucket_of(SimDuration ns) noexcept {
  if (ns == 0) return 0;
  return static_cast<int>(std::bit_width(ns)) - 1;  // floor(log2)
}

}  // namespace

void LatencyHistogram::add(SimDuration ns) noexcept {
  int b = bucket_of(ns);
  if (b >= kBuckets) b = kBuckets - 1;
  ++buckets_[static_cast<std::size_t>(b)];
  ++count_;
  sum_ += ns;
  if (ns > max_) max_ = ns;
}

double LatencyHistogram::percentile_ns(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const auto n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (seen + static_cast<double>(n) >= target) {
      // Interpolate inside the bucket [2^b, 2^(b+1)).
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b);
      const double hi = std::ldexp(1.0, b + 1);
      const double frac = n ? (target - seen) / static_cast<double>(n) : 0.0;
      return lo + frac * (hi - lo);
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(max_);
}

std::string format_duration(double ns) {
  char buf[48];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", ns / 1e9);
  }
  return buf;
}

}  // namespace imca
