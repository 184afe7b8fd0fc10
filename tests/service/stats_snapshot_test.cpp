// fastz.stats/v1 snapshot exporter: one JSONL object per call, schema
// sections present, counters consistent with the server's own stats, and
// latency sketches surfaced with their documented relative-error bound.
#include "service/stats_snapshot.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gpusim/profiler.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/corpus.hpp"

namespace fastz::service {
namespace {

using fastz::testing::CaseKind;
using fastz::testing::make_case_of_kind;
using telemetry::JsonValue;

ServerConfig small_config() {
  ServerConfig config;
  config.queue_limit = 32;
  config.batch_max = 8;
  config.batch_window_s = 1e-4;
  config.shards = 2;
  config.latency_objective_s = 30.0;  // generous: no breaches expected
  auto c = make_case_of_kind(11, CaseKind::kPipeline);
  config.options = c.pipeline;
  return config;
}

AlignRequest request_from(const fastz::testing::FuzzCase& c) {
  AlignRequest req;
  req.a = c.a;
  req.b = c.b;
  req.params = c.params;
  return req;
}

TEST(StatsSnapshot, EmitsOneParseableLineWithEverySection) {
  telemetry::ScopedEnable scoped;
  telemetry::MetricsRegistry::global().reset_values();
  AlignmentServer server(small_config());
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  server.submit(request_from(c)).get();
  server.submit(request_from(c)).get();  // cache hit

  const std::string line = stats_snapshot_json(server, /*uptime_s=*/1.5);
  // JSONL discipline: exactly one line.
  EXPECT_EQ(line.find('\n'), line.size() - 1);

  const JsonValue doc = JsonValue::parse(line);
  EXPECT_EQ(doc.at("schema").as_string(), kStatsSchema);
  EXPECT_EQ(doc.at("uptime_s").as_number(), 1.5);

  EXPECT_EQ(doc.at("queue").at("limit").as_number(), 32.0);
  EXPECT_EQ(doc.at("queue").at("depth").as_number(), 0.0);

  const JsonValue& requests = doc.at("requests");
  EXPECT_EQ(requests.at("accepted").as_number(), 2.0);
  EXPECT_EQ(requests.at("completed").as_number(), 2.0);
  EXPECT_EQ(requests.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(requests.at("shed").as_number(), 0.0);
  EXPECT_EQ(requests.at("shed_queue_full").as_number(), 0.0);

  const JsonValue& batches = doc.at("batches");
  EXPECT_GE(batches.at("dispatched").as_number(), 1.0);
  EXPECT_GE(batches.at("occupancy").as_number(), 1.0);

  const JsonValue& cache = doc.at("cache");
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);
  EXPECT_EQ(cache.at("hit_rate").as_number(), 0.5);

  const JsonValue& shards = doc.at("shards");
  EXPECT_EQ(shards.at("count").as_number(), 2.0);
  EXPECT_EQ(shards.at("busy_s").as_array().size(), 2u);
  EXPECT_GT(shards.at("total_busy_s").as_number(), 0.0);

  const JsonValue& slo = doc.at("slo");
  EXPECT_EQ(slo.at("objective_s").as_number(), 30.0);
  EXPECT_EQ(slo.at("breaches").as_number(), 0.0);
  EXPECT_EQ(slo.at("burn_rate").as_number(), 0.0);

  // The latency section surfaces the registry's service.latency.* sketches
  // (prefix stripped) with the sketch's error bound.
  const JsonValue& latency = doc.at("latency");
  EXPECT_EQ(latency.at("relative_error").as_number(),
            telemetry::QuantileSketch::kRelativeError);
  const JsonValue& req_ns = latency.at("request_ns");
  EXPECT_EQ(req_ns.at("count").as_number(), 2.0);
  EXPECT_GT(req_ns.at("p50_ns").as_number(), 0.0);
  EXPECT_LE(req_ns.at("p50_ns").as_number(), req_ns.at("p99_ns").as_number());
  EXPECT_LE(req_ns.at("p99_ns").as_number(), req_ns.at("p999_ns").as_number());
  // Estimates live inside the stream's (error-widened) range.
  EXPECT_GE(req_ns.at("p50_ns").as_number(),
            req_ns.at("min_ns").as_number() * 0.99);
  EXPECT_LE(req_ns.at("p999_ns").as_number(),
            req_ns.at("max_ns").as_number() * 1.01);
  EXPECT_NE(latency.find("cache_hit_ns"), nullptr);

  // No profiler supplied: no kernels section.
  EXPECT_EQ(doc.find("kernels"), nullptr);
}

TEST(StatsSnapshot, ProfilerAddsCumulativeKernelTotals) {
  telemetry::ScopedEnable scoped;
  telemetry::MetricsRegistry::global().reset_values();
  gpusim::ProfilerSession session;
  gpusim::ScopedProfiler profiler(session);
  ServerConfig config = small_config();
  config.cache_max_entries = 0;
  AlignmentServer server(config);
  server.submit(request_from(make_case_of_kind(11, CaseKind::kPipeline))).get();

  const JsonValue doc =
      JsonValue::parse(stats_snapshot_json(server, 0.5, &session));
  const JsonValue* kernels = doc.find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_FALSE(kernels->as_object().empty());
  for (const auto& [name, totals] : kernels->as_object()) {
    EXPECT_FALSE(name.empty());
    EXPECT_GE(totals.at("launches").as_number(), 1.0);
    EXPECT_GE(totals.at("tasks").as_number(), 0.0);
    EXPECT_GE(totals.at("time_s").as_number(), 0.0);
  }
}

TEST(StatsSnapshot, DisabledTelemetryStillSnapshotsCounters) {
  // The snapshot surface works without the telemetry switch: server
  // counters are always live; only the latency sketches stay empty.
  ASSERT_FALSE(telemetry::enabled());
  telemetry::MetricsRegistry::global().reset_values();
  AlignmentServer server(small_config());
  server.submit(request_from(make_case_of_kind(11, CaseKind::kPipeline))).get();

  const JsonValue doc = JsonValue::parse(stats_snapshot_json(server, 0.1));
  EXPECT_EQ(doc.at("schema").as_string(), kStatsSchema);
  EXPECT_EQ(doc.at("requests").at("completed").as_number(), 1.0);
  const JsonValue* request_ns = doc.at("latency").find("request_ns");
  if (request_ns != nullptr) {
    EXPECT_EQ(request_ns->at("count").as_number(), 0.0);
  }
}

}  // namespace
}  // namespace fastz::service
