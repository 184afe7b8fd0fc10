// Small descriptive-statistics helpers used by the experiment harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fastz {

// Streaming accumulator for count / mean / min / max / variance (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Geometric mean of strictly positive values; returns 0 for empty input.
// The paper reports mean speedups across benchmarks; speedup aggregation is
// conventionally geometric.
double geometric_mean(std::span<const double> values);

// p in [0, 100]; linear interpolation between order statistics.
// Copies and sorts; intended for end-of-run reporting, not hot paths.
double percentile(std::vector<double> values, double p);

}  // namespace fastz
