#include "telemetry/metrics.hpp"

namespace fastz::telemetry {

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counter_snapshot()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

QuantileSketch& MetricsRegistry::sketch(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(std::string(name), std::make_unique<QuantileSketch>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, SketchSnapshot>>
MetricsRegistry::sketch_snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, SketchSnapshot>> out;
  out.reserve(sketches_.size());
  for (const auto& [name, s] : sketches_) {
    SketchSnapshot snap;
    snap.count = s->count();
    snap.sum = s->sum();
    snap.min = s->min();
    snap.max = s->max();
    snap.p50 = s->quantile(0.50);
    snap.p99 = s->quantile(0.99);
    snap.p999 = s->quantile(0.999);
    out.emplace_back(name, snap);
  }
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, s] : sketches_) s->reset();
}

std::size_t MetricsRegistry::counter_count() const {
  std::lock_guard lock(mutex_);
  return counters_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace fastz::telemetry
