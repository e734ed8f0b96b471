// Measurement primitives for the benchmarks.
//
//  * MeanAccum  — streaming mean/min/max (no allocation).
//  * LatencyHistogram — log2-bucketed latency histogram with percentile
//    estimation; buckets cover 1ns .. ~18s which spans everything the
//    simulator produces.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/units.h"

namespace imca {

class MeanAccum {
 public:
  void add(double x) noexcept {
    sum_ += x;
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  void reset() noexcept { *this = MeanAccum(); }

 private:
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::uint64_t n_ = 0;
};

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void add(SimDuration ns) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  double mean_ns() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  // Percentile in nanoseconds via bucket interpolation. q in [0, 1].
  double percentile_ns(double q) const noexcept;
  SimDuration max_ns() const noexcept { return max_; }
  void reset() noexcept { *this = LatencyHistogram(); }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  SimDuration max_ = 0;
};

// Pretty-print a nanosecond quantity with an adaptive unit (ns/us/ms/s).
std::string format_duration(double ns);

}  // namespace imca
