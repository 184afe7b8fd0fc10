#include "fastz/multi_gpu.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "telemetry/trace.hpp"

namespace fastz::gpusim {

ShardSet::ShardSet(std::size_t count, const DeviceSpec& spec) : spec_(spec) {
  if (count == 0) throw std::invalid_argument("ShardSet: count must be >= 1");
  busy_s_.resize(count, 0.0);
}

void ShardSet::charge(std::size_t shard, double modeled_s) {
  std::lock_guard lock(mutex_);
  busy_s_.at(shard) += modeled_s;
}

double ShardSet::busy_s(std::size_t shard) const {
  std::lock_guard lock(mutex_);
  return busy_s_.at(shard);
}

double ShardSet::total_busy_s() const {
  std::lock_guard lock(mutex_);
  return std::accumulate(busy_s_.begin(), busy_s_.end(), 0.0);
}

double ShardSet::imbalance() const {
  std::lock_guard lock(mutex_);
  const double total = std::accumulate(busy_s_.begin(), busy_s_.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const double mean = total / static_cast<double>(busy_s_.size());
  return *std::max_element(busy_s_.begin(), busy_s_.end()) / mean;
}

MultiGpuRun model_multi_gpu(const FastzStudy& study, const FastzConfig& config,
                            const DeviceSpec& device, std::uint32_t devices) {
  if (devices == 0) devices = 1;
  MultiGpuRun out;
  out.devices = devices;
  out.per_device_s.reserve(devices);

  const double single_s = study.derive(config, device).modeled.total_s();

  for (std::uint32_t shard = 0; shard < devices; ++shard) {
    // Per-shard span: the profiler's kernel tags carry the shard id, the
    // host timeline carries the matching derive interval.
    telemetry::TraceSpan span(
        telemetry::enabled() ? std::string("fastz.multi_gpu.shard") + std::to_string(shard)
                             : std::string(),
        "fastz");
    const FastzRun run = study.derive(config, device, devices, shard);
    out.per_device_s.push_back(run.modeled.total_s());
  }
  out.time_s = *std::max_element(out.per_device_s.begin(), out.per_device_s.end());
  out.speedup_vs_single = single_s / out.time_s;
  out.efficiency = out.speedup_vs_single / devices;
  return out;
}

std::vector<MultiGpuRun> multi_gpu_scaling(const FastzStudy& study,
                                           const FastzConfig& config,
                                           const DeviceSpec& device,
                                           const std::vector<std::uint32_t>& counts) {
  std::vector<MultiGpuRun> runs;
  runs.reserve(counts.size());
  for (std::uint32_t n : counts) {
    runs.push_back(model_multi_gpu(study, config, device, n));
  }
  return runs;
}

}  // namespace fastz::gpusim
