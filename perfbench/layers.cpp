#include "layers.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "gpusim/profiler.hpp"
#include "report/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fastz;

const std::vector<LayerMetricDef> kPerLayerMetrics = {
    {"seed.index_s", "s"},
    {"seed.hits_s", "s"},
    {"seed.hits", "count"},
    {"seed.share", "ratio"},
    {"fastz.inspector.self_s", "s"},
    {"fastz.inspector.cells", "count"},
    {"fastz.inspector.gcups", "GCUPS"},
    {"fastz.inspector.eager_ratio", "ratio"},
    {"fastz.inspector.share", "ratio"},
    {"fastz.executor.self_s", "s"},
    {"fastz.executor.tasks", "count"},
    {"fastz.executor.cells", "count"},
    {"fastz.executor.gcups", "GCUPS"},
    {"fastz.executor.yield_ratio", "ratio"},
    {"fastz.executor.share", "ratio"},
    {"fastz.pipeline.overhead_s", "s"},
    {"fastz.pipeline.share", "ratio"},
    {"fastz.pipeline.parallel_efficiency", "ratio"},
    {"fastz.pipeline.alignments", "count"},
    {"gpusim.derive_host_ms", "ms"},
    {"gpusim.share", "ratio"},
    {"gpusim.launches", "count"},
    {"gpusim.modeled_inspector_ms", "ms"},
    {"gpusim.modeled_executor_ms", "ms"},
    {"gpusim.modeled_other_ms", "ms"},
    {"gpusim.load_imbalance", "ratio"},
    {"gpusim.bytes_moved", "bytes"},
    {"service.submit_us", "us"},
    {"service.hit_latency_p50_ms", "ms"},
    {"service.miss_latency_p50_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.batch_items", "count"},
    {"service.coalesced_ratio", "ratio"},
    {"service.max_queue_depth", "count"},
    {"service.shed", "count"},
    {"service.pipeline_ms_per_miss", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"layers.coverage", "ratio"},
};

void complete_per_layer(Report& report) {
  std::unordered_map<std::string, Metric> have;
  for (const Metric& m : report.metrics()) have.emplace(m.name, m);
  std::vector<Metric> ordered;
  for (const LayerMetricDef& def : kPerLayerMetrics) {
    auto it = have.find(def.name);
    ordered.push_back(it != have.end() ? it->second
                                       : Metric{def.name, 0.0, def.unit, 0, "layer absent"});
  }
  report.metrics() = std::move(ordered);
}

double profiled_load_imbalance(const FastzStudy& study, const FastzConfig& config,
                               const gpusim::DeviceSpec& device) {
  gpusim::ProfilerSession session;
  {
    gpusim::ScopedProfiler scoped(session);
    (void)study.derive(config, device);
  }
  return summarize_profile(session).mean_load_imbalance;
}

namespace {

// The spans a unit's layer metrics are measured from: every timed public
// call. Time inside a unit span that none of them covers is unmeasured.
bool is_layer_span(const char* name) {
  static const std::set<std::string> kLayerSpans = {
      "seed.index", "seed.hits", "fastz.inspect_seed", "fastz.execute_seed",
      "fastz.assemble", "gpusim.derive"};
  return kLayerSpans.count(name) > 0;
}

struct Coverage {
  double covered_s = 0.0;
  double unit_s = 0.0;
};

// Over every root span (a pair or a miss), the wallclock during which at
// least one layer span of the same unit was running, and the root spans'
// total duration. Overlapping layer spans (the pool's workers) count once.
Coverage layer_coverage(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> by_unit;
  for (const SpanRecord& s : spans) {
    if (is_layer_span(s.name)) by_unit[s.unit].emplace_back(s.start_us, s.end_us);
  }
  Coverage c;
  for (const SpanRecord& root : spans) {
    if (root.parent != 0) continue;
    const auto it = by_unit.find(root.unit);
    if (it == by_unit.end()) continue;
    c.unit_s += (root.end_us - root.start_us) * 1e-6;
    std::vector<std::pair<double, double>> iv = it->second;
    std::sort(iv.begin(), iv.end());
    double hi_so_far = root.start_us;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, hi_so_far);
      hi = std::min(hi, root.end_us);
      if (hi <= lo) continue;
      c.covered_s += (hi - lo) * 1e-6;
      hi_so_far = hi;
    }
  }
  return c;
}

}  // namespace

void add_pipeline_layers(Report& report, const std::vector<SpanRecord>& spans,
                         const std::vector<LayerUnit>& units, std::size_t threads,
                         const std::vector<double>& load_imbalance) {
  if (units.empty()) return;
  const std::size_t n = units.size();
  const double per = 1.0 / static_cast<double>(n);
  const double workers = static_cast<double>(std::max<std::size_t>(1, threads));

  std::vector<double> wall, pass, derive, traced;
  double hits = 0, eager = 0, icells = 0, tasks = 0, ecells = 0, yield = 0, alns = 0;
  double launches = 0, m_insp = 0, m_exec = 0, m_other = 0, bytes = 0;
  for (const LayerUnit& u : units) {
    wall.push_back(u.pass_s + u.derive_s);
    pass.push_back(u.pass_s);
    derive.push_back(u.derive_s);
    traced.push_back(u.traced_s);
    hits += static_cast<double>(u.replay.hits);
    eager += static_cast<double>(u.replay.eager);
    icells += static_cast<double>(u.replay.inspector_cells);
    tasks += static_cast<double>(u.replay.tasks);
    ecells += static_cast<double>(u.replay.executor_cells);
    yield += static_cast<double>(u.replay.task_yield);
    alns += static_cast<double>(u.alignments);
    launches += static_cast<double>(u.run.inspector_launches + u.run.executor_kernels);
    m_insp += u.run.modeled.inspector_s * 1e3;
    m_exec += u.run.modeled.executor_s * 1e3;
    m_other += u.run.modeled.other_s * 1e3;
    bytes += static_cast<double>(u.run.ledger.device_bytes() + u.run.ledger.host_copy_bytes);
  }
  // Means, not medians: shares of a total must add up, and service misses
  // have a heavy tail.
  const double unit_s = mean(wall);
  const double pass_s = mean(pass);
  const double derive_s = mean(derive);

  const SpanTotals t_index = span_totals(spans, "seed.index");
  const SpanTotals t_hits = span_totals(spans, "seed.hits");
  const SpanTotals t_insp = span_totals(spans, "fastz.inspect_seed");
  const SpanTotals t_exec = span_totals(spans, "fastz.execute_seed");
  const double index_s = t_index.self_s * per;
  const double hits_s = t_hits.self_s * per;
  const double insp_s = t_insp.self_s * per;
  const double exec_s = t_exec.self_s * per;
  const double seed_s = index_s + hits_s;
  const double overhead_s = pass_s - seed_s - (insp_s + exec_s) / workers;

  const std::string base = "of the unit's mean untraced wallclock (FastzStudy + derive)";
  const std::string busy_base = "busy time / " + std::to_string(threads) +
                                " threads, " + base;
  report.add("seed.index_s", index_s, "s", n, "SeedIndex construction per unit");
  report.add("seed.hits_s", hits_s, "s", n, "find_hits per unit");
  report.add("seed.hits", hits * per, "count", n, "seed hits per unit");
  report.add("seed.share", seed_s / unit_s, "ratio", n, base);
  report.add("fastz.inspector.self_s", insp_s, "s", t_insp.count, "inspect_seed busy time per unit");
  report.add("fastz.inspector.cells", icells * per, "count", n, "search cells per unit");
  report.add("fastz.inspector.gcups", insp_s > 0 ? icells * per / insp_s * 1e-9 : 0.0,
             "GCUPS", n, "search cells / inspector self time");
  report.add("fastz.inspector.eager_ratio", hits > 0 ? eager / hits : 0.0, "ratio", n,
             "eager seeds / seed hits");
  report.add("fastz.inspector.share", insp_s / workers / unit_s, "ratio", n, busy_base);
  report.add("fastz.executor.self_s", exec_s, "s", t_exec.count, "execute_seed busy time per unit");
  report.add("fastz.executor.tasks", tasks * per, "count", n, "executor tasks per unit");
  report.add("fastz.executor.cells", ecells * per, "count", n, "trimmed cells per unit");
  report.add("fastz.executor.gcups", exec_s > 0 ? ecells * per / exec_s * 1e-9 : 0.0,
             "GCUPS", n, "trimmed cells / executor self time");
  report.add("fastz.executor.yield_ratio", tasks > 0 ? yield / tasks : 0.0, "ratio", n,
             "tasks clearing the threshold / tasks");
  report.add("fastz.executor.share", exec_s / workers / unit_s, "ratio", n, busy_base);
  report.add("fastz.pipeline.overhead_s", overhead_s, "s", n,
             "pass wallclock - seed - (inspect + execute) / threads");
  report.add("fastz.pipeline.share", std::max(0.0, overhead_s) / unit_s, "ratio", n, base);
  report.add("fastz.pipeline.parallel_efficiency",
             pass_s > 0 ? (seed_s + insp_s + exec_s) / (workers * pass_s) : 0.0, "ratio", n,
             "replayed busy / (threads x pass wallclock)");
  report.add("fastz.pipeline.alignments", alns * per, "count", n, "reported alignments per unit");
  report.add("gpusim.derive_host_ms", derive_s * 1e3, "ms", n, "mean host derive() per unit");
  report.add("gpusim.share", derive_s / unit_s, "ratio", n, base);
  report.add("gpusim.launches", launches * per, "count", n, "kernel launches per unit");
  report.add("gpusim.modeled_inspector_ms", m_insp * per, "ms", n, "modeled clock");
  report.add("gpusim.modeled_executor_ms", m_exec * per, "ms", n, "modeled clock");
  report.add("gpusim.modeled_other_ms", m_other * per, "ms", n, "modeled clock");
  report.add("gpusim.load_imbalance", mean(load_imbalance), "ratio", load_imbalance.size(),
             "max/mean SM busy, duration-weighted over kernels");
  report.add("gpusim.bytes_moved", bytes * per, "bytes", n,
             "computed from the ledger: device + host-copy bytes per unit");
  report.add("trace.overhead_ratio", mean(traced) / unit_s, "ratio", n,
             "traced replay + derive / untraced FastzStudy + derive, means per unit");
  // Unlike the shares, whose pipeline term is a residual, taken from the
  // spans alone: the share of the traced units' wallclock spent inside timed
  // public calls. Below kMinCoverage the shares leave too much of a unit
  // unexplained to be trusted.
  const Coverage cov = layer_coverage(spans);
  const double coverage = cov.unit_s > 0 ? cov.covered_s / cov.unit_s : 0.0;
  report.add("layers.coverage", coverage, "ratio", n,
             "wallclock inside seed/inspect/execute/assemble/derive spans / traced unit wallclock");
  if (coverage < kMinCoverage) {
    report.mismatch("layer spans cover " + std::to_string(coverage) +
                    " of the traced units' wallclock, below " + std::to_string(kMinCoverage));
  }
}

}  // namespace perfbench
