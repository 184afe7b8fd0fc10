// Multicore LASTZ: coarse-grained inter-seed parallelism.
//
// The paper's multicore comparison point (Section 3.4) partitions the seed
// list across processes, each running the default sequential DP on its
// partition. Here the workers of a thread pool (ThreadPool::parallel_for)
// claim seeds one at a time, so there is no fixed partition; results are
// written per seed and concatenated in seed order, so the output is
// bit-identical to the sequential pipeline regardless of thread count
// (verified by tests).
//
// FastZ's GPU innovations deliberately do not apply here (Section 3.4):
// no slow device-side allocation to motivate inspector-executor, too few
// architectural registers for cyclic buffers, no bulk-synchronous kernels
// to load-balance, and row-major traversal is already memory-friendly.
//
// The paper reports 20x on a 16-core Ryzen 3950x with 32 processes — capped
// below 32x by DRAM bandwidth; `gpusim::multicore_lastz_time_s` models that
// cap for the figure benches, while `run_multicore_lastz` really executes
// the partitioned pipeline (its wall-clock depends on this machine's cores).
#pragma once

#include <cstdint>

#include "align/lastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "sequence/sequence.hpp"

namespace fastz {

struct MulticoreOptions {
  std::size_t threads = 0;           // 0 = hardware concurrency
  std::uint32_t model_processes = 32;  // workers in the analytic model
};

struct MulticoreResult {
  std::vector<Alignment> alignments;
  PipelineCounters counters;
  std::size_t threads_used = 0;
  // Modeled time on the paper's 16-core Ryzen with `model_processes`
  // workers (from the DP cell count and the bandwidth roofline).
  double modeled_time_s = 0.0;
};

MulticoreResult run_multicore_lastz(const Sequence& a, const Sequence& b,
                                    const ScoreParams& params,
                                    const PipelineOptions& options = {},
                                    const MulticoreOptions& mc = {});

}  // namespace fastz
