// AlignmentServer behavior: bit-identical results vs direct FastzStudy,
// typed admission control, micro-batch coalescing, cache hits, duplicate
// coalescing, shard accounting, error propagation, and clean shutdown.
//
// Determinism strategy: start_paused holds every shard worker so a test
// can stage a known queue, then resume() and observe exactly the
// dispatches it staged. Nothing here sleeps-and-hopes.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "testing/corpus.hpp"

namespace fastz::service {
namespace {

using fastz::testing::CaseKind;
using fastz::testing::make_case_of_kind;

ServerConfig small_config() {
  ServerConfig config;
  config.queue_limit = 32;
  config.batch_max = 8;
  config.batch_window_s = 1e-4;
  config.shards = 2;
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

void expect_matches_direct(const AlignResult& got, const fastz::testing::FuzzCase& c,
                           const PipelineOptions& options, const std::string& label) {
  const FastzStudy direct(c.a, c.b, c.params, options);
  ASSERT_EQ(got.outcome.alignments.size(), direct.alignments().size()) << label;
  for (std::size_t i = 0; i < direct.alignments().size(); ++i) {
    const Alignment& d = direct.alignments()[i];
    const Alignment& s = got.outcome.alignments[i];
    EXPECT_EQ(d.a_begin, s.a_begin) << label;
    EXPECT_EQ(d.a_end, s.a_end) << label;
    EXPECT_EQ(d.b_begin, s.b_begin) << label;
    EXPECT_EQ(d.b_end, s.b_end) << label;
    EXPECT_EQ(d.score, s.score) << label;
    EXPECT_EQ(d.ops, s.ops) << label;
  }
  EXPECT_EQ(got.outcome.seeds, direct.seeds()) << label;
  EXPECT_EQ(got.outcome.inspector_cells, direct.inspector_cells()) << label;
}

// Full equality of two alignment lists: coordinates, score and every op.
bool same_alignments(const std::vector<Alignment>& want, const std::vector<Alignment>& got) {
  return std::equal(want.begin(), want.end(), got.begin(), got.end(),
                    [](const Alignment& w, const Alignment& g) {
                      return w.a_begin == g.a_begin && w.a_end == g.a_end &&
                             w.b_begin == g.b_begin && w.b_end == g.b_end &&
                             w.score == g.score && w.ops == g.ops;
                    });
}

TEST(AlignmentServer, SingleRequestMatchesDirectPipeline) {
  const ServerConfig config = small_config();
  AlignmentServer server(config);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  AlignResult result = server.submit(request_from(c)).get();
  expect_matches_direct(result, c, config.options, "single");
  EXPECT_FALSE(result.cache_hit);
  EXPECT_FALSE(result.coalesced);
  EXPECT_GT(result.outcome.modeled_gpu_s, 0.0);
}

TEST(AlignmentServer, StagedQueueCoalescesIntoOneBatch) {
  ServerConfig config = small_config();
  config.shards = 1;
  AlignmentServer server(config, /*start_paused=*/true);

  std::vector<fastz::testing::FuzzCase> cases;
  std::vector<std::future<AlignResult>> futures;
  for (std::uint64_t seed : {11ull, 202ull, 12ull}) {
    cases.push_back(make_case_of_kind(seed, CaseKind::kPipeline));
    futures.push_back(server.submit(request_from(cases.back())));
  }
  EXPECT_EQ(server.queue_depth(), 3u);
  server.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    AlignResult result = futures[i].get();
    expect_matches_direct(result, cases[i], config.options,
                          "staged " + std::to_string(i));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 1u) << "3 staged requests must dispatch as ONE batch";
  EXPECT_EQ(stats.pipeline_items, 3u);
}

TEST(AlignmentServer, BatchingDisabledDispatchesOneAtATime) {
  ServerConfig config = small_config();
  config.batch_max = 1;  // no linger, one request per dispatch
  config.shards = 1;
  AlignmentServer server(config, /*start_paused=*/true);

  std::vector<std::future<AlignResult>> futures;
  const auto c1 = make_case_of_kind(11, CaseKind::kPipeline);
  const auto c2 = make_case_of_kind(202, CaseKind::kPipeline);
  futures.push_back(server.submit(request_from(c1)));
  futures.push_back(server.submit(request_from(c2)));
  server.resume();
  expect_matches_direct(futures[0].get(), c1, config.options, "unbatched 0");
  expect_matches_direct(futures[1].get(), c2, config.options, "unbatched 1");
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(AlignmentServer, QueueFullShedsWithTypedError) {
  ServerConfig config = small_config();
  config.queue_limit = 2;
  AlignmentServer server(config, /*start_paused=*/true);  // nothing drains

  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  auto f1 = server.submit(request_from(c));
  auto f2 = server.submit(request_from(c));
  try {
    server.submit(request_from(c));
    FAIL() << "third submit must shed";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.depth(), 2u);
    EXPECT_EQ(e.limit(), 2u);
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_EQ(server.stats().shed, 1u);
  server.resume();
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
}

TEST(AlignmentServer, RunningServerBoundsItsBacklog) {
  // Back-to-back submits to a server that is never paused: whatever the
  // workers are doing, accepted-but-unanswered requests are the queue
  // plus at most one batch per worker.
  ServerConfig config = small_config();
  config.shards = 1;
  config.queue_limit = 4;
  config.batch_max = 2;
  config.cache_max_entries = 0;
  const std::uint64_t bound = config.queue_limit + config.shards * config.batch_max;
  std::vector<fastz::testing::FuzzCase> cases;
  std::vector<AlignRequest> requests;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    cases.push_back(make_case_of_kind(seed, CaseKind::kPipeline));
    requests.push_back(request_from(cases.back()));
  }

  AlignmentServer server(config);
  constexpr int kSubmits = 400;
  std::vector<std::pair<std::size_t, std::future<AlignResult>>> accepted;
  int shed = 0;
  for (int k = 0; k < kSubmits; ++k) {
    const std::size_t c = static_cast<std::size_t>(k) % requests.size();
    try {
      accepted.emplace_back(c, server.submit(requests[c]));
    } catch (const QueueFullError&) {
      ++shed;
    }
    const ServerStats stats = server.stats();
    ASSERT_LE(stats.accepted - stats.completed, bound) << "after submit " << k;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted + stats.shed, static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.shed_queue_full, stats.shed) << "every shed is a QueueFullError";
  EXPECT_EQ(stats.accepted, accepted.size());
  for (auto& [c, future] : accepted) {
    expect_matches_direct(future.get(), cases[c], config.options,
                          "backlog case " + std::to_string(c));
  }
}

TEST(AlignmentServer, RepeatRequestHitsTheCache) {
  ServerConfig config = small_config();
  config.shards = 1;
  AlignmentServer server(config);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);

  AlignResult first = server.submit(request_from(c)).get();
  EXPECT_FALSE(first.cache_hit);
  AlignResult second = server.submit(request_from(c)).get();
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.outcome.alignments.size(), first.outcome.alignments.size());
  for (std::size_t i = 0; i < first.outcome.alignments.size(); ++i) {
    EXPECT_EQ(first.outcome.alignments[i].score, second.outcome.alignments[i].score);
    EXPECT_EQ(first.outcome.alignments[i].ops, second.outcome.alignments[i].ops);
  }
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().pipeline_items, 1u) << "second request must not re-run";
  EXPECT_EQ(server.cache_stats().hits, 1u);
  EXPECT_EQ(server.cache_stats().insertions, 1u);
}

TEST(AlignmentServer, CacheDisabledAlwaysRuns) {
  ServerConfig config = small_config();
  config.cache_max_entries = 0;
  AlignmentServer server(config);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  EXPECT_FALSE(server.submit(request_from(c)).get().cache_hit);
  EXPECT_FALSE(server.submit(request_from(c)).get().cache_hit);
  EXPECT_EQ(server.stats().pipeline_items, 2u);
  // A zero-capacity cache still counts its lookups, and stores nothing.
  EXPECT_EQ(server.cache_stats().misses, 2u);
  EXPECT_EQ(server.cache_stats().insertions, 0u);
}

TEST(AlignmentServer, DuplicatesWithinABatchRunOnce) {
  ServerConfig config = small_config();
  config.shards = 1;
  config.cache_max_entries = 0;  // isolate in-batch coalescing from caching
  AlignmentServer server(config, /*start_paused=*/true);

  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  auto f1 = server.submit(request_from(c));
  auto f2 = server.submit(request_from(c));
  auto f3 = server.submit(request_from(c));
  server.resume();
  AlignResult r1 = f1.get();
  AlignResult r2 = f2.get();
  AlignResult r3 = f3.get();
  EXPECT_FALSE(r1.coalesced);  // first occurrence ran
  EXPECT_TRUE(r2.coalesced);
  EXPECT_TRUE(r3.coalesced);
  EXPECT_EQ(r1.outcome.alignments.size(), r2.outcome.alignments.size());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.pipeline_items, 1u) << "3 duplicates must run the pipeline once";
  EXPECT_EQ(stats.coalesced, 2u);
}

TEST(AlignmentServer, ShardsAccrueModeledTime) {
  ServerConfig config = small_config();
  config.shards = 2;
  config.cache_max_entries = 0;
  AlignmentServer server(config);
  std::vector<std::future<AlignResult>> futures;
  for (std::uint64_t seed : {11ull, 202ull, 12ull, 13ull}) {
    futures.push_back(
        server.submit(request_from(make_case_of_kind(seed, CaseKind::kPipeline))));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(server.shard_set().size(), 2u);
  EXPECT_GT(server.shard_set().total_busy_s(), 0.0);
  // Every result names a shard inside the fleet.
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST(AlignmentServer, InvalidParamsPropagateThroughTheFuture) {
  AlignmentServer server(small_config());
  auto c = make_case_of_kind(11, CaseKind::kPipeline);
  c.params.gap_extend = 5;  // positive gap penalty: validate() rejects
  auto future = server.submit(request_from(c));
  EXPECT_THROW(future.get(), std::invalid_argument);
  // The server survives a poisoned request.
  const auto good = make_case_of_kind(202, CaseKind::kPipeline);
  EXPECT_NO_THROW(server.submit(request_from(good)).get());
}

TEST(AlignmentServer, ShutdownDrainsAcceptedWork) {
  ServerConfig config = small_config();
  AlignmentServer server(config, /*start_paused=*/true);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  auto f1 = server.submit(request_from(c));
  auto f2 = server.submit(request_from(make_case_of_kind(202, CaseKind::kPipeline)));
  server.shutdown();  // never resumed: shutdown itself must drain
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  EXPECT_THROW(server.submit(request_from(c)), ShutdownError);
  server.shutdown();  // idempotent
}

TEST(AlignmentServer, RejectsDegenerateConfig) {
  ServerConfig config = small_config();
  config.queue_limit = 0;
  EXPECT_THROW(AlignmentServer{config}, std::invalid_argument);
  config = small_config();
  config.batch_max = 0;
  EXPECT_THROW(AlignmentServer{config}, std::invalid_argument);
}

TEST(AlignmentServer, ManyConcurrentClientsAllComplete) {
  // Closed-loop hammering from several client threads; every completion
  // must equal the direct pipeline's alignments for its case. The three
  // direct studies are built once, before the clients start.
  ServerConfig config = small_config();
  config.queue_limit = 256;
  config.shards = 2;
  std::vector<fastz::testing::FuzzCase> cases;
  std::vector<std::vector<Alignment>> direct;
  for (std::uint64_t seed : {11ull, 202ull, 12ull}) {
    cases.push_back(make_case_of_kind(seed, CaseKind::kPipeline));
    const auto& c = cases.back();
    direct.push_back(FastzStudy(c.a, c.b, c.params, config.options).alignments());
  }
  AlignmentServer server(config);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const std::size_t k = static_cast<std::size_t>(t + i) % cases.size();
        try {
          AlignResult result = server.submit(request_from(cases[k])).get();
          if (!same_alignments(direct[k], result.outcome.alignments)) failures.fetch_add(1);
        } catch (const QueueFullError&) {
          // Sheds are legal under load; correctness is about completions.
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, stats.accepted);
}

}  // namespace
}  // namespace fastz::service
