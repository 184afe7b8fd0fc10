// The benchmark's workloads. Each runs one process-local workload from its
// seed and returns the run's report: end-to-end metrics with tracing off,
// per-layer metrics from the traced run (Options::trace).
#pragma once

#include "bench_common.hpp"

namespace perfbench {

// Per-layer metrics, in print order. A traced run of any workload reports
// every one of them; layers a workload does not exercise read 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricDef> kPerLayerMetrics;

// Adds every per-layer metric not yet in `report` with value 0 (the layer
// is absent from this workload), then orders the metrics as listed above.
void complete_per_layer(Report& report);

Report run_nematode_pair(const Options& options);
Report run_service_zipf(const Options& options);

// Negative checks of the verifiers: corrupts the benchmark's own copies of
// an alignment and of a service reply and confirms both are rejected.
// Returns the number of checks that failed to reject.
int verifier_negative_checks();

}  // namespace perfbench
