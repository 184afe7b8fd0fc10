#include "service/stats_snapshot.hpp"

#include <map>
#include <sstream>
#include <string_view>

#include "gpusim/profiler.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "util/simd.hpp"

namespace fastz::service {

namespace {

// Sketch names are exported without the registry prefix ("request_ns"
// instead of "service.latency.request_ns") — the snapshot is already
// service-scoped.
std::string_view strip_prefix(std::string_view name, std::string_view prefix) {
  if (name.substr(0, prefix.size()) == prefix) name.remove_prefix(prefix.size());
  return name;
}

}  // namespace

void write_stats_snapshot(std::ostream& out, const AlignmentServer& server,
                          double uptime_s,
                          const gpusim::ProfilerSession* profiler) {
  const ServerStats stats = server.stats();
  const CacheStats cache = server.cache_stats();
  const gpusim::ShardSet& shards = server.shard_set();
  const ServerConfig& config = server.config();

  telemetry::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kStatsSchema);
  w.field("uptime_s", uptime_s);

  // DP-kernel dispatch: which SIMD ISA the alignment hot paths run on.
  // Snapshots from hosts with different vector widths are bit-identical in
  // results but not comparable in throughput — dashboards key on this.
  w.key("simd").begin_object();
  w.field("active", simd::isa_name(simd::active_isa()));
  w.field("detected", simd::isa_name(simd::detected_isa()));
  w.field("width", static_cast<std::uint64_t>(simd::isa_lanes(simd::active_isa())));
  w.end_object();

  w.key("queue").begin_object();
  w.field("depth", static_cast<std::uint64_t>(server.queue_depth()));
  w.field("limit", static_cast<std::uint64_t>(config.queue_limit));
  w.field("max_depth", static_cast<std::uint64_t>(stats.max_queue_depth));
  w.end_object();

  w.key("requests").begin_object();
  w.field("accepted", stats.accepted);
  w.field("completed", stats.completed);
  w.field("shed", stats.shed);
  w.field("shed_queue_full", stats.shed_queue_full);
  w.field("shed_shutdown", stats.shed_shutdown);
  w.field("cache_hits", stats.cache_hits);
  w.field("coalesced", stats.coalesced);
  w.end_object();

  w.key("batches").begin_object();
  w.field("dispatched", stats.batches);
  w.field("pipeline_items", stats.pipeline_items);
  // Mean requests answered per batch — micro-batching's coalescing win
  // (1.0 = no batching benefit).
  w.field("occupancy", stats.batches == 0
                           ? 0.0
                           : static_cast<double>(stats.completed) /
                                 static_cast<double>(stats.batches));
  w.end_object();

  w.key("cache").begin_object();
  w.field("hits", cache.hits);
  w.field("misses", cache.misses);
  const std::uint64_t lookups = cache.hits + cache.misses;
  w.field("hit_rate", lookups == 0 ? 0.0
                                   : static_cast<double>(cache.hits) /
                                         static_cast<double>(lookups));
  w.field("entries", static_cast<std::uint64_t>(cache.entries));
  w.field("bytes", static_cast<std::uint64_t>(cache.bytes));
  w.field("evictions", cache.evictions);
  w.end_object();

  w.key("shards").begin_object();
  w.field("count", static_cast<std::uint64_t>(shards.size()));
  w.key("busy_s").begin_array();
  for (std::size_t s = 0; s < shards.size(); ++s) w.value(shards.busy_s(s));
  w.end_array();
  w.field("total_busy_s", shards.total_busy_s());
  w.field("imbalance", shards.imbalance());
  w.end_object();

  w.key("slo").begin_object();
  w.field("objective_s", config.latency_objective_s);
  w.field("breaches", stats.slo_breaches);
  // Fraction of completions that blew the objective (the burn rate an
  // error-budget policy would alert on).
  w.field("burn_rate", stats.completed == 0
                           ? 0.0
                           : static_cast<double>(stats.slo_breaches) /
                                 static_cast<double>(stats.completed));
  w.end_object();

  // Latency quantile sketches (real quantiles, relative error <=
  // QuantileSketch::kRelativeError). Only populated while telemetry is
  // enabled — the snapshot reports whatever the registry holds.
  w.key("latency").begin_object();
  w.field("relative_error", telemetry::QuantileSketch::kRelativeError);
  for (const auto& [name, sketch] :
       telemetry::MetricsRegistry::global().sketch_snapshot()) {
    if (std::string_view(name).substr(0, 16) != "service.latency.") continue;
    w.key(strip_prefix(name, "service.latency."));
    w.begin_object();
    w.field("count", sketch.count);
    w.field("min_ns", sketch.min);
    w.field("max_ns", sketch.max);
    w.field("mean_ns", sketch.count == 0
                           ? 0.0
                           : static_cast<double>(sketch.sum) /
                                 static_cast<double>(sketch.count));
    w.field("p50_ns", sketch.p50);
    w.field("p99_ns", sketch.p99);
    w.field("p999_ns", sketch.p999);
    w.end_object();
  }
  w.end_object();

  // Cumulative per-kernel-name launch totals; consumers difference
  // consecutive snapshots into per-interval deltas.
  if (profiler != nullptr) {
    struct KernelTotals {
      std::uint64_t launches = 0;
      std::uint64_t tasks = 0;
      double time_s = 0.0;
    };
    std::map<std::string, KernelTotals> totals;
    for (const auto& k : profiler->kernels()) {
      KernelTotals& t = totals[k.tag.name];
      ++t.launches;
      t.tasks += k.counters.tasks;
      t.time_s += k.cost.time_s;
    }
    w.key("kernels").begin_object();
    for (const auto& [name, t] : totals) {
      w.key(name).begin_object();
      w.field("launches", t.launches);
      w.field("tasks", t.tasks);
      w.field("time_s", t.time_s);
      w.end_object();
    }
    w.end_object();
  }

  w.end_object();
  out << "\n";
}

std::string stats_snapshot_json(const AlignmentServer& server, double uptime_s,
                                const gpusim::ProfilerSession* profiler) {
  std::ostringstream out;
  write_stats_snapshot(out, server, uptime_s, profiler);
  return out.str();
}

}  // namespace fastz::service
