// Process-wide telemetry switch.
//
// Telemetry (trace spans, metric counters, quantile sketches) is off by
// default so instrumented hot paths pay exactly one relaxed atomic load.
// Benches and tools flip it on when they want a timeline or a metrics
// export; everything downstream of the flag — buffer registration, string
// construction, clock reads — happens only on the enabled path.
#pragma once

#include <atomic>

namespace fastz::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

// Single relaxed load; safe to call from any thread at any frequency.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// RAII scoped enable/disable, mainly for tests and bench harnesses.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) noexcept : prev_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

}  // namespace fastz::telemetry
