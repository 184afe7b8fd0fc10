// Thread-safe registry of named counters and quantile sketches.
//
// Counters and sketches are plain atomics once created, so concurrent
// increments never contend on the registry lock; the lock guards only
// name -> instrument resolution (and snapshotting for export). Instruments
// live for the registry's lifetime at stable addresses, so hot call sites
// may resolve once and cache the pointer.
//
// Naming convention (see docs/TELEMETRY.md): lowercase dotted paths,
// "<subsystem>.<noun>[.<unit>]", e.g. "gpusim.kernel.compute_ns",
// "fastz.ledger.score_read_bytes". Times recorded as integer counters use
// nanoseconds; byte quantities end in "_bytes".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/quantile_sketch.hpp"

namespace fastz::telemetry {

// Monotonically increasing 64-bit counter. `add` is lock-free and safe from
// any thread; `reset` is intended for test/bench harness boundaries only.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time copy of a quantile sketch, for exporters. Quantiles carry
// the sketch's relative-error bound (QuantileSketch::kRelativeError).
struct SketchSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

class MetricsRegistry {
 public:
  // Create-or-get; the returned reference stays valid for the registry's
  // lifetime, so call sites may cache it.
  Counter& counter(std::string_view name);
  QuantileSketch& sketch(std::string_view name);

  // Sorted-by-name copies of current values (zero-valued instruments are
  // included; callers filter if they want).
  std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() const;
  std::vector<std::pair<std::string, SketchSnapshot>> sketch_snapshot() const;

  // Zeroes every instrument, keeping registrations (cached pointers stay
  // valid). Bench harnesses call this between repeats.
  void reset_values();

  std::size_t counter_count() const;

  // Process-wide registry used by the built-in instrumentation.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  // unique_ptr nodes give stable addresses across rehash-free std::map; the
  // map itself is never erased from.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<QuantileSketch>, std::less<>> sketches_;
};

}  // namespace fastz::telemetry
