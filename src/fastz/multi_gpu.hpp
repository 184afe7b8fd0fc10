// Multi-GPU extension (the paper's Discussion, Section 6).
//
// "FastZ's approach lends itself to multi-GPU (and if necessary,
// multi-node) acceleration because the seeds can be partitioned easily.
// As such, each partition can be assigned to different GPUs and/or nodes
// for parallel execution." The paper defers the implementation; this
// module builds it on the virtual substrate: seeds are sharded round-robin
// across identical devices, each shard runs the full inspector/executor
// schedule independently, and the ensemble finishes at the slowest shard.
// Sequences are broadcast to every device (PCIe cost repeats); the
// seed-partitioning itself is free, exactly the property the paper points
// to.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"

namespace fastz::gpusim {

// A fleet of identical virtual GPUs with per-shard modeled-busy-time
// accounting — the alignment service's worker s runs its batches on shard
// s (docs/SERVICE.md), and `charge()` books the modeled seconds each batch
// consumed there. Placement is not this class's job: a batch goes to
// whichever worker is free. All methods are thread-safe; the busy times
// are modeled device time, not wallclock, so accounting is deterministic
// under any thread schedule once per-shard charge sequences are fixed.
class ShardSet {
 public:
  // `count` must be >= 1 (throws std::invalid_argument otherwise).
  ShardSet(std::size_t count, const DeviceSpec& spec);

  std::size_t size() const noexcept { return busy_s_.size(); }
  const DeviceSpec& spec() const noexcept { return spec_; }

  // Books `modeled_s` seconds of device time on `shard`.
  void charge(std::size_t shard, double modeled_s);

  double busy_s(std::size_t shard) const;
  double total_busy_s() const;
  // max(busy) / mean(busy) — 1.0 is perfectly balanced; 0 when idle.
  double imbalance() const;

 private:
  DeviceSpec spec_;
  mutable std::mutex mutex_;
  std::vector<double> busy_s_;
};

struct MultiGpuRun {
  std::uint32_t devices = 0;
  double time_s = 0.0;                 // max over shards (bulk completion)
  std::vector<double> per_device_s;    // each shard's modeled total
  double speedup_vs_single = 0.0;      // single-device total / time_s
  double efficiency = 0.0;             // speedup / devices
};

// Models `devices` identical `device`s executing `study` under `config`.
MultiGpuRun model_multi_gpu(const FastzStudy& study, const FastzConfig& config,
                            const DeviceSpec& device, std::uint32_t devices);

// Scaling sweep over device counts (e.g. {1, 2, 4, 8}).
std::vector<MultiGpuRun> multi_gpu_scaling(const FastzStudy& study,
                                           const FastzConfig& config,
                                           const DeviceSpec& device,
                                           const std::vector<std::uint32_t>& counts);

}  // namespace fastz::gpusim
