// Per-layer accounting of traced runs: the seed / fastz / gpusim layers of
// the functional pass, measured from the spans the replay records around
// each public call and from the counts the calls return.
#pragma once

#include <vector>

#include "bench_common.hpp"
#include "fastz/fastz_pipeline.hpp"

namespace perfbench {

// One unit of pipeline work (a chromosome pair or a service miss), measured
// twice: untraced through FastzStudy + derive, traced through the replay.
struct LayerUnit {
  double pass_s = 0.0;    // untraced FastzStudy construction
  double derive_s = 0.0;  // untraced derive()
  double traced_s = 0.0;  // traced replay + traced derive()
  ReplayResult replay;    // counts only (alignments and latencies dropped)
  std::uint64_t alignments = 0;
  fastz::FastzRun run;
};

// Load imbalance of one derive, from a ProfilerSession: the per-kernel
// max/mean SM busy ratio, weighted by each kernel's modeled duration.
double profiled_load_imbalance(const fastz::FastzStudy& study,
                               const fastz::FastzConfig& config,
                               const fastz::gpusim::DeviceSpec& device);

// Least share of the traced units' wallclock the layer spans must cover.
inline constexpr double kMinCoverage = 0.95;

// Adds the seed.*, fastz.*, gpusim.*, trace.overhead_ratio and
// layers.coverage metrics. Times and counts are per unit; shares are of the
// unit's untraced wallclock (FastzStudy + derive), with the replay's busy
// time spread over `threads` workers. layers.coverage is measured from the
// spans alone; below kMinCoverage it is recorded as a mismatch.
void add_pipeline_layers(Report& report, const std::vector<SpanRecord>& spans,
                         const std::vector<LayerUnit>& units, std::size_t threads,
                         const std::vector<double>& load_imbalance);

}  // namespace perfbench
