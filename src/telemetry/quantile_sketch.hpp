// Mergeable fixed-memory streaming quantile sketch (DDSketch-style).
//
// The registry's one distribution instrument: the service's latency
// reporting needs real quantiles, not log2 bucket upper bounds (up to 2x
// off at p99). This sketch buckets positive values into geometric buckets
// of ratio gamma = (1 + alpha) / (1 - alpha) with alpha = kRelativeError = 1%:
// bucket i holds values in (gamma^(i-1), gamma^i], and a quantile query
// returns the bucket's log-midpoint (1 - alpha) * gamma^i, which is within
// a factor (1 +- alpha) of every value the bucket can hold. The quantile
// estimate is therefore RELATIVE-error bounded:
//
//     |q_est - q_true| <= alpha * q_true        (plus float rounding,
//                                                well under 0.1 * alpha)
//
// for every quantile, at every stream size — the DDSketch guarantee
// (Masson et al., VLDB'19), pinned against sorted-vector ground truth by
// tests/telemetry/quantile_sketch_test.cpp.
//
// The value domain is uint64 (the registry's nanosecond convention), so
// the bucket index never exceeds log_gamma(2^64) < 2218 and the sketch is
// FIXED memory: kSlots atomic counters (~18 KB), no collapsing, no
// allocation after construction. Zero values get the exact slot 0.
//
// Recording is wait-free (relaxed atomic adds, same discipline as the
// registry's counters); sketches merge by bucket-wise addition, so per-shard or
// per-repeat sketches combine without error growth. Aggregate queries are
// approximate under concurrent writers and exact once writers quiesce.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fastz::telemetry {

class QuantileSketch {
 public:
  // Documented relative-error bound of every quantile estimate.
  static constexpr double kRelativeError = 0.01;
  // Bucket ratio: values within one bucket differ by at most gamma.
  static constexpr double kGamma = (1.0 + kRelativeError) / (1.0 - kRelativeError);
  // Slot 0 is the exact zero bucket; slots 1.. cover (gamma^(i-1), gamma^i]
  // up to 2^64 (log_gamma(2^64) ~= 2217.1; headroom rounds to 2220 + zero).
  static constexpr std::size_t kSlots = 2221;

  void record(std::uint64_t value) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const noexcept;  // 0 when empty
  std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }

  // q in [0, 1]; 0 when empty. Relative error <= kRelativeError.
  double quantile(double q) const noexcept;

  // Bucket-wise addition; the merged sketch answers quantiles over the
  // union stream with the same error bound.
  void merge(const QuantileSketch& other) noexcept;

  void reset() noexcept;

  // Internals exposed for tests: the slot a value lands in and the value a
  // slot's estimate reports.
  static std::size_t slot_of(std::uint64_t value) noexcept;
  static double slot_estimate(std::size_t slot) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kSlots> slots_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace fastz::telemetry
