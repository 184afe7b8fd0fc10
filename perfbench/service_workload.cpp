// service_zipf: an AlignmentServer (2 shards x 1 pass thread, default
// 1024-entry result cache) serving query windows against a few shared target
// windows. Query popularity is Zipf over a corpus several times larger than
// the cache, so hits (reads) run beside misses that insert and evict
// (writes). The cache is warmed to that steady state before timing; then an
// open-loop phase (one generator, seeded Poisson arrivals at a fixed rate)
// and a closed-loop phase (a fixed number of outstanding requests).
//
// Every reply is checked bit-identical against a direct FastzStudy +
// derive() of the same request (the oracle), outside timing and set-up.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "fastz/fastz_pipeline.hpp"
#include "layers.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "sequence/genome_synth.hpp"
#include "service/server.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fastz;
using service::AlignmentServer;
using service::AlignOutcome;
using service::AlignRequest;
using service::AlignResult;

namespace {

struct ServiceShape {
  std::size_t targets;       // shared target windows
  std::size_t target_len;
  std::size_t query_len;
  std::size_t corpus;        // distinct query windows
  double zipf_skew;
  std::size_t cache_entries;
  double open_rate_rps;      // fixed absolute arrival rate of the open loop
  std::size_t min_open_requests;  // latency_p99 needs 10 samples beyond it
  std::size_t replay_misses; // traced run: miss-class requests replayed per layer
};

// Zipf 0.6 over a corpus eight times the cache leaves about 70% of requests
// missing. Each miss seeds and inspects a query against a 50 kb target
// (10-15 ms on one core), so the latency percentiles and the closed loop's
// goodput are set by pipeline work and its queueing. With mostly hits
// (Zipf 1.3, about 8% misses) they were set by the sub-millisecond hand-offs
// of a hit instead, and those swing with host scheduling delays: beside a
// periodic two-thread CPU hog, goodput fell 34% and p99 rose 51% in that
// mix, against 0% and 10% in this one. The open loop runs at 40/s, about a
// quarter of the ~150/s closed-loop capacity, because the host's speed
// swings by up to 1.5x and queueing amplifies a slower host: at 65/s, a
// spell of 10% hypervisor steal pushed the queue near saturation (p50 rose
// 3.7x and p99 6.8x while the oracle's own pair_s rose 24%), and at 50/s
// p99 still swung 1.8x against pair_s's 1.5x.
constexpr ServiceShape kFull{3, 50000, 5000, 8192, 0.6, 1024, 40.0, 1200, 160};
constexpr ServiceShape kTiny{2, 20000, 2000, 96, 1.0, 16, 40.0, 0, 8};

constexpr std::size_t kShards = 2;
constexpr std::size_t kThreadsPerShard = 1;
// Large enough that a host stall under the fixed open-loop rate shows as
// latency, not as sheds.
constexpr std::size_t kQueueLimit = 256;
constexpr std::size_t kWarmOutstanding = 64;
constexpr std::size_t kClosedOutstanding = 4;
constexpr std::size_t kInitialWaiters = 16;  // open loop; more are added on demand
// All cores but one, like the pair workloads' reference replay: the oracle's
// own timings are the service workload's pair_s samples.
constexpr std::size_t kOracleThreads = 3;
constexpr std::size_t kStreamRequests = 200000;  // Zipf draws per closed-loop stream
// Share of --seconds for the open loop (latency percentiles need the most
// samples); the closed loop gets the rest.
constexpr double kOpenShare = 0.8;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Entry {
  std::uint32_t target = 0;
  std::uint32_t b_offset = 0;
};

struct Corpus {
  Sequence source_b;  // query windows are cut from here at submit time
  std::vector<Sequence> targets;
  std::vector<Entry> entries;
  std::vector<double> zipf_cdf;              // over popularity ranks
  std::vector<std::uint32_t> entry_of_rank;  // seeded popularity order
  std::vector<std::uint32_t> rank_of_entry;
  ScoreParams params;
};

Sequence window(const Sequence& seq, std::size_t offset, std::size_t length,
                const std::string& name) {
  const auto codes = seq.codes(offset, length);
  return Sequence(name, std::vector<BaseCode>(codes.begin(), codes.end()));
}

Corpus make_corpus(const ServiceShape& shape, std::uint64_t seed) {
  // Cross-genus content: no long homologies, so a miss costs seeding plus
  // inspection (the work batching amortizes) and the latency tail is set by
  // queueing, not by one rare giant alignment.
  const BenchmarkPair spec = find_pair("CD_1,2R", 0.02);
  SyntheticPair data = generate_pair(spec.model, mix(seed, 20), spec.species_a, spec.species_b);
  Corpus c;
  c.params = lastz_default_params();
  c.params.ydrop = 2000;
  Xoshiro256 rng(mix(seed, 21));
  const std::size_t len = std::min(data.a.size(), data.b.size());
  const std::size_t slot = len / shape.targets;
  for (std::size_t t = 0; t < shape.targets; ++t) {
    const std::size_t at = t * slot + rng.below(slot - shape.target_len);
    c.targets.push_back(window(data.a, at, shape.target_len, "target" + std::to_string(t)));
  }
  // Query windows come from anywhere on the query chromosome, so most are
  // unrelated to their target (chance seed hits only) and some overlap its
  // homologous stretch. Distinct windows: the corpus must hold `corpus`
  // different requests.
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  while (c.entries.size() < shape.corpus) {
    const auto t = static_cast<std::uint32_t>(c.entries.size() % shape.targets);
    const auto off = static_cast<std::uint32_t>(rng.below(data.b.size() - shape.query_len));
    if (used.emplace(t, off).second) c.entries.push_back({t, off});
  }
  double total = 0.0;
  for (std::size_t r = 0; r < shape.corpus; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), shape.zipf_skew);
    c.zipf_cdf.push_back(total);
  }
  for (double& v : c.zipf_cdf) v /= total;
  c.entry_of_rank.resize(shape.corpus);
  for (std::size_t r = 0; r < shape.corpus; ++r) c.entry_of_rank[r] = static_cast<std::uint32_t>(r);
  for (std::size_t r = shape.corpus - 1; r > 0; --r) {
    std::swap(c.entry_of_rank[r], c.entry_of_rank[rng.below(r + 1)]);
  }
  c.rank_of_entry.resize(shape.corpus);
  for (std::size_t r = 0; r < shape.corpus; ++r) {
    c.rank_of_entry[c.entry_of_rank[r]] = static_cast<std::uint32_t>(r);
  }
  c.source_b = std::move(data.b);
  return c;
}

// A seeded stream of corpus entries drawn by Zipf popularity.
class ZipfStream {
 public:
  ZipfStream(const Corpus& c, std::uint64_t seed) : corpus_(c), rng_(seed) {}
  std::uint32_t next() {
    const double u = rng_.uniform();
    const auto it = std::lower_bound(corpus_.zipf_cdf.begin(), corpus_.zipf_cdf.end(), u);
    const auto rank = std::min<std::size_t>(corpus_.zipf_cdf.size() - 1,
                                            static_cast<std::size_t>(it - corpus_.zipf_cdf.begin()));
    return corpus_.entry_of_rank[rank];
  }

 private:
  const Corpus& corpus_;
  Xoshiro256 rng_;
};

AlignRequest make_request(const Corpus& c, const ServiceShape& shape, std::uint32_t entry) {
  AlignRequest req;
  const Entry& e = c.entries[entry];
  req.a = c.targets[e.target];
  req.b = window(c.source_b, e.b_offset, shape.query_len, std::to_string(entry));
  req.params = c.params;
  return req;
}

Digest128 outcome_digest(const AlignOutcome& o) {
  DigestBuilder d;
  const Digest128 alns = digest_alignments(o.alignments);
  std::uint64_t modeled_bits = 0;
  std::memcpy(&modeled_bits, &o.modeled_gpu_s, sizeof(modeled_bits));
  d.update_u64(alns.hi).update_u64(alns.lo);
  d.update_u64(o.seeds).update_u64(o.inspector_cells).update_u64(modeled_bits);
  return d.finish();
}

struct Reply {
  std::uint32_t entry = 0;
  double due_s = 0.0;   // open loop: scheduled send time; closed loop: submit time
  double done_s = kInf; // completion (phase clock); infinite when shed or failed
  double submit_us = 0.0;
  double late_s = 0.0;  // open loop: how late the generator sent it
  std::size_t queue_depth = 0;  // open loop: pending requests when it was sent
  bool shed = false;
  bool error = false;
  bool cache_hit = false;
  bool coalesced = false;
  double modeled_s = 0.0;
  Digest128 digest;

  double latency_s() const { return shed || error ? kInf : done_s - due_s; }
};

void fill_reply(Reply& r, std::future<AlignResult>& fut, Clock::time_point phase_start) {
  try {
    AlignResult res = fut.get();
    r.done_s = seconds_since(phase_start);
    r.cache_hit = res.cache_hit;
    r.coalesced = res.coalesced;
    r.modeled_s = res.outcome.modeled_gpu_s;
    r.digest = outcome_digest(res.outcome);
  } catch (const std::exception&) {
    r.error = true;
  }
}

// Closed loop: `clients` threads each keep one request outstanding until
// `stop()` says so. Returns every reply.
template <typename Stop>
std::vector<Reply> closed_loop(AlignmentServer& server, const Corpus& c,
                               const ServiceShape& shape, const std::vector<std::uint32_t>& stream,
                               std::size_t clients, Clock::time_point phase_start, Stop stop,
                               SpanRecorder* rec = nullptr, std::uint64_t unit_base = 0) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Reply>> per(clients);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      while (!stop()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= stream.size()) break;
        Reply r;
        r.entry = stream[i];
        AlignRequest req = make_request(c, shape, r.entry);
        Span span(rec, "service.request", 0, unit_base + i);
        r.due_s = seconds_since(phase_start);
        try {
          std::future<AlignResult> fut;
          {
            Span sub(rec, "service.submit", span.id(), unit_base + i);
            fut = server.submit(std::move(req));
          }
          fill_reply(r, fut, phase_start);
        } catch (const service::QueueFullError&) {
          r.shed = true;
        } catch (const std::exception&) {
          r.error = true;
        }
        per[t].push_back(r);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<Reply> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

// Open loop: one generator sends `schedule` (seconds after phase start) in
// order regardless of replies. The server answers out of order (hits before
// the misses of their batch, shards independently), so every outstanding
// reply gets a waiter of its own, blocked on that reply alone: a reply is
// timed when it is ready, never when a busy waiter gets round to it. The
// generator adds a waiter whenever replies outnumber idle waiters.
std::vector<Reply> open_loop(AlignmentServer& server, const Corpus& c, const ServiceShape& shape,
                             const std::vector<double>& schedule,
                             const std::vector<std::uint32_t>& entries, SpanRecorder* rec) {
  std::vector<Reply> replies(schedule.size());
  std::vector<std::uint64_t> span_ids(schedule.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<AlignResult>>> inflight;
  std::size_t idle = 0;
  bool done = false;
  const auto start = Clock::now();
  const double origin_us = rec != nullptr ? rec->now_us() : 0.0;

  const auto waiter = [&] {
    std::unique_lock lock(mu);
    for (;;) {
      ++idle;
      cv.wait(lock, [&] { return done || !inflight.empty(); });
      --idle;
      if (inflight.empty()) return;
      auto item = std::move(inflight.front());
      inflight.pop_front();
      lock.unlock();
      Reply& r = replies[item.first];
      fill_reply(r, item.second, start);
      if (rec != nullptr) {
        SpanRecord span;
        span.name = "service.request";
        span.id = span_ids[item.first];
        span.unit = item.first + 1;
        span.start_us = origin_us + r.due_s * 1e6;
        span.end_us = origin_us + (r.error ? seconds_since(start) : r.done_s) * 1e6;
        rec->add(span);
      }
      lock.lock();
    }
  };
  std::vector<std::thread> waiters;
  for (std::size_t t = 0; t < kInitialWaiters; ++t) waiters.emplace_back(waiter);

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(schedule[i])));
    Reply& r = replies[i];
    r.entry = entries[i];
    r.due_s = schedule[i];
    r.late_s = std::max(0.0, seconds_since(start) - schedule[i]);
    r.queue_depth = server.queue_depth();
    AlignRequest req = make_request(c, shape, r.entry);
    if (rec != nullptr) span_ids[i] = rec->next_id();
    try {
      const auto s0 = Clock::now();
      std::future<AlignResult> fut;
      {
        Span sub(rec, "service.submit", span_ids[i], i + 1);
        fut = server.submit(std::move(req));
      }
      r.submit_us = seconds_since(s0) * 1e6;
      bool add_waiter = false;
      {
        std::lock_guard lock(mu);
        inflight.emplace_back(i, std::move(fut));
        add_waiter = idle < inflight.size();
      }
      cv.notify_one();
      if (add_waiter) waiters.emplace_back(waiter);
    } catch (const service::QueueFullError&) {
      r.shed = true;
    } catch (const std::exception&) {
      r.error = true;
    }
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& th : waiters) th.join();
  return replies;
}

struct OracleResult {
  Digest128 digest;
  double seconds = 0.0;     // FastzStudy + derive wallclock
  bool misscored = false;   // an alignment does not rescore to its score
};

// Direct FastzStudy + derive() of each entry, on kOracleThreads threads;
// each alignment is also rescored.
std::unordered_map<std::uint32_t, OracleResult> run_oracle(
    const Corpus& c, const ServiceShape& shape, const service::ServerConfig& config,
    const std::vector<std::uint32_t>& entries) {
  std::vector<OracleResult> results(entries.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  PipelineOptions options = config.options;
  options.threads = 1;
  for (std::size_t t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < entries.size();) {
        const AlignRequest req = make_request(c, shape, entries[i]);
        const auto t0 = Clock::now();
        const FastzStudy study(req.a, req.b, req.params, options);
        const FastzRun run = study.derive(config.config, config.device);
        results[i].seconds = seconds_since(t0);
        results[i].misscored =
            first_misscored(study.alignments(), req.a, req.b, req.params) >= 0;
        AlignOutcome o;
        o.alignments = study.alignments();
        o.seeds = study.seeds();
        o.inspector_cells = study.inspector_cells();
        o.modeled_gpu_s = run.modeled.total_s();
        results[i].digest = outcome_digest(o);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::unordered_map<std::uint32_t, OracleResult> by_entry;
  for (std::size_t i = 0; i < entries.size(); ++i) by_entry.emplace(entries[i], results[i]);
  return by_entry;
}

service::ServerConfig server_config(const ServiceShape& shape) {
  service::ServerConfig config;
  config.shards = kShards;
  config.threads_per_shard = kThreadsPerShard;
  config.queue_limit = kQueueLimit;
  config.cache_max_entries = shape.cache_entries;
  return config;
}

struct Phases {
  std::vector<Reply> warm, open, closed;
  double setup_s = 0.0;
  double closed_s = 0.0;  // closed-loop measuring window
  double rss_mb = 0.0;
  service::ServerStats before, after;
  service::CacheStats cache_before, cache_after;
};

Phases run_phases(AlignmentServer& server, const Corpus& corpus, const ServiceShape& shape,
                  const Options& opt, Clock::time_point t_start, SpanRecorder* rec) {
  Phases ph;
  // Warm-up: closed loop until the cache is full and has begun to evict.
  {
    std::vector<std::uint32_t> stream;
    ZipfStream zipf(corpus, mix(opt.seed, 30));
    for (std::size_t i = 0; i < kStreamRequests; ++i) stream.push_back(zipf.next());
    ph.warm = closed_loop(server, corpus, shape, stream, kWarmOutstanding, Clock::now(), [&] {
      const service::CacheStats cs = server.cache_stats();
      return cs.entries >= shape.cache_entries && cs.evictions > 0;
    });
  }
  ph.setup_s = seconds_since(t_start);
  ph.before = server.stats();
  ph.cache_before = server.cache_stats();

  // Open loop: seeded Poisson arrivals at a fixed absolute rate. A fixed
  // count of them, so every run has the same number of latency samples.
  const std::size_t open_requests = std::max<std::size_t>(
      shape.min_open_requests,
      static_cast<std::size_t>(std::lround(kOpenShare * opt.seconds * shape.open_rate_rps)));
  std::vector<double> schedule;
  std::vector<std::uint32_t> entries;
  {
    Xoshiro256 arrivals(mix(opt.seed, 31));
    ZipfStream zipf(corpus, mix(opt.seed, 32));
    for (double t = 0.0; schedule.size() < open_requests;) {
      t += -std::log(1.0 - arrivals.uniform()) / shape.open_rate_rps;
      schedule.push_back(t);
      entries.push_back(zipf.next());
    }
  }
  ph.open = open_loop(server, corpus, shape, schedule, entries, rec);

  // Closed loop: kClosedOutstanding clients, each waiting for its reply.
  {
    std::vector<std::uint32_t> stream;
    ZipfStream zipf(corpus, mix(opt.seed, 33));
    for (std::size_t i = 0; i < kStreamRequests; ++i) stream.push_back(zipf.next());
    ph.closed_s = (1.0 - kOpenShare) * opt.seconds;
    const auto start = Clock::now();
    ph.closed = closed_loop(server, corpus, shape, stream, kClosedOutstanding, start,
                            [&] { return seconds_since(start) >= ph.closed_s; }, rec,
                            std::uint64_t{1} << 32);
  }
  ph.rss_mb = peak_rss_mb();
  ph.after = server.stats();
  ph.cache_after = server.cache_stats();
  return ph;
}

// Verifies every reply against the oracle; returns the oracle's timings of
// the distinct requests (pair_s samples).
std::vector<double> verify(const Corpus& corpus, const ServiceShape& shape,
                           const service::ServerConfig& config,
                           const std::vector<const std::vector<Reply>*>& sets, Report& report) {
  std::vector<std::uint32_t> distinct;
  {
    std::set<std::uint32_t> seen;
    for (const auto* set : sets) {
      for (const Reply& r : *set) {
        if (!r.shed && !r.error && seen.insert(r.entry).second) distinct.push_back(r.entry);
      }
    }
  }
  const auto oracle = run_oracle(corpus, shape, config, distinct);
  for (const auto& [entry, o] : oracle) {
    if (o.misscored) {
      report.mismatch("corpus entry " + std::to_string(entry) +
                      ": an alignment does not rescore to its score");
    }
  }
  for (const auto* set : sets) {
    for (const Reply& r : *set) {
      report.attempt();
      if (r.shed || r.error) {
        report.fail_operation();
        continue;
      }
      if (!(oracle.at(r.entry).digest == r.digest)) {
        report.mismatch("request for corpus entry " + std::to_string(r.entry) +
                        ": reply differs from a direct FastzStudy");
      }
    }
  }
  std::vector<double> seconds;
  for (const auto& [entry, o] : oracle) seconds.push_back(o.seconds);
  return seconds;
}

std::vector<double> latencies(const std::vector<Reply>& replies) {
  std::vector<double> out;
  for (const Reply& r : replies) out.push_back(r.latency_s());
  return out;
}

// Traced run: per-layer view of the service's misses, replayed through the
// public layer API (unbatched, one thread) and through run_functional_batch
// in server-sized batches. Which requests missed depends on the cache's
// state and so on thread timing; the replayed requests are chosen from the
// seeded inputs instead, so a seed always replays the same units: the first
// distinct open-loop entries whose popularity rank lies beyond the cache's
// capacity (the entries the LRU cache mostly does not hold).
void add_miss_layers(Report& report, const Corpus& corpus, const ServiceShape& shape,
                     const service::ServerConfig& config, const Phases& ph, SpanRecorder& rec) {
  std::vector<std::uint32_t> misses;
  {
    std::set<std::uint32_t> seen;
    for (const Reply& r : ph.open) {
      if (misses.size() >= shape.replay_misses) break;
      if (corpus.rank_of_entry[r.entry] >= shape.cache_entries && seen.insert(r.entry).second) {
        misses.push_back(r.entry);
      }
    }
  }
  PipelineOptions options = config.options;
  options.threads = 1;
  std::vector<LayerUnit> units;
  std::vector<double> imbalance;
  std::uint64_t unit_id = 1u << 31;
  for (const std::uint32_t entry : misses) {
    const AlignRequest req = make_request(corpus, shape, entry);
    LayerUnit unit;
    const auto t0 = Clock::now();
    const FastzStudy study(req.a, req.b, req.params, options);
    const auto t1 = Clock::now();
    unit.run = study.derive(config.config, config.device);
    unit.derive_s = seconds_since(t1);
    unit.pass_s = std::chrono::duration<double>(t1 - t0).count();
    ++unit_id;
    const auto t2 = Clock::now();
    {
      Span miss_span(&rec, "miss", 0, unit_id);
      ReplayResult replay =
          replay_pass(req.a, req.b, req.params, options, 1, &rec, unit_id, miss_span.id());
      {
        Span derive_span(&rec, "gpusim.derive", miss_span.id(), unit_id);
        (void)study.derive(config.config, config.device);
      }
      if (!(digest_alignments(replay.alignments) == digest_alignments(study.alignments()))) {
        report.mismatch("corpus entry " + std::to_string(entry) +
                        ": replay differs from FastzStudy");
      }
      unit.alignments = replay.alignments.size();
      replay.alignments.clear();
      replay.seed_latency_s.clear();
      unit.replay = std::move(replay);
    }
    unit.traced_s = seconds_since(t2);
    imbalance.push_back(profiled_load_imbalance(study, config.config, config.device));
    units.push_back(std::move(unit));
  }
  add_pipeline_layers(report, rec.spans(), units, 1, imbalance);

  // The server's path: run_functional_batch in batches of batch_max, then
  // one derive per item.
  std::vector<AlignRequest> reqs;
  for (const std::uint32_t entry : misses) reqs.push_back(make_request(corpus, shape, entry));
  const auto t0 = Clock::now();
  for (std::size_t first = 0; first < reqs.size(); first += config.batch_max) {
    std::vector<FunctionalBatchItem> items;
    for (std::size_t i = first; i < std::min(reqs.size(), first + config.batch_max); ++i) {
      items.push_back({&reqs[i].a, &reqs[i].b, reqs[i].params, config.options});
    }
    for (const FastzStudy& s : run_functional_batch(items, kThreadsPerShard)) {
      (void)s.derive(config.config, config.device);
    }
  }
  const double batch_s = seconds_since(t0);
  report.add("service.pipeline_ms_per_miss",
             misses.empty() ? 0.0 : batch_s * 1e3 / static_cast<double>(misses.size()), "ms",
             misses.size(), "run_functional_batch + derive in batches of " +
                                std::to_string(config.batch_max));
}

}  // namespace

Report run_service_zipf(const Options& opt) {
  Report report("service_zipf");
  const ServiceShape& shape = opt.tiny ? kTiny : kFull;
  const service::ServerConfig config = server_config(shape);

  const auto t_start = Clock::now();
  const Corpus corpus = make_corpus(shape, opt.seed);
  std::unique_ptr<SpanRecorder> rec;
  if (opt.trace) rec = std::make_unique<SpanRecorder>();
  Phases ph;
  {
    AlignmentServer server(config);
    ph = run_phases(server, corpus, shape, opt, t_start, rec.get());
  }

  const auto t_verify = Clock::now();
  const std::vector<double> oracle_s =
      verify(corpus, shape, config, {&ph.warm, &ph.open, &ph.closed}, report);
  std::cout << "phases: setup " << ph.setup_s << " s (" << ph.warm.size()
            << " warm-up requests), open loop " << ph.open.size() << " requests, closed loop "
            << ph.closed.size() << " requests, verification " << seconds_since(t_verify)
            << " s (" << oracle_s.size() << " distinct requests)\n";

  if (!opt.trace) {
    std::vector<double> modeled;
    for (const Reply& r : ph.open) {
      if (!r.shed && !r.error) modeled.push_back(r.modeled_s * 1e3);
    }
    std::size_t good = 0;
    for (const Reply& r : ph.closed) {
      good += r.done_s <= ph.closed_s && r.latency_s() * 1e3 <= opt.latency_limit_ms;
    }
    const std::vector<double> open_lat = latencies(ph.open);
    report.add("pair_s", median(oracle_s), "s", oracle_s.size(),
               "median direct FastzStudy + derive per distinct request (oracle)");
    report.add("modeled_gpu_ms", mean(modeled), "ms", modeled.size(),
               "modeled clock, mean over open-loop replies");
    report.add("latency_p50_ms", quantile(open_lat, 0.50) * 1e3, "ms", open_lat.size(),
               "open loop, from due time, rate " + std::to_string(shape.open_rate_rps) + "/s");
    report.add("latency_p99_ms", quantile(open_lat, 0.99) * 1e3, "ms", open_lat.size(),
               "open loop, from due time");
    report.add("goodput_rps", static_cast<double>(good) / ph.closed_s, "1/s", ph.closed.size(),
               "closed loop, " + std::to_string(kClosedOutstanding) +
                   " outstanding, verified within the limit");
    report.add("setup_s", ph.setup_s, "s", 1, "corpus + server start + cache warm-up");
    report.add("peak_rss_mb", ph.rss_mb, "MiB", 1, "after the timed phases");
    return report;
  }

  // Traced run: service.* from the replies and the server's counters over
  // the timed phases; fastz/seed/gpusim from the miss replay.
  std::vector<double> submit_us, hit_lat, miss_lat, late;
  std::size_t max_depth = 0;
  for (const Reply& r : ph.open) {
    max_depth = std::max(max_depth, r.queue_depth);
    if (r.shed || r.error) continue;
    submit_us.push_back(r.submit_us);
    (r.cache_hit ? hit_lat : miss_lat).push_back(r.latency_s() * 1e3);
    late.push_back(r.late_s * 1e3);
  }
  std::size_t replies = 0, hits = 0, misses = 0, coalesced = 0;
  for (const auto* set : {&ph.open, &ph.closed}) {
    for (const Reply& r : *set) {
      if (r.shed || r.error) continue;
      ++replies;
      hits += r.cache_hit;
      misses += !r.cache_hit;
      coalesced += r.coalesced;
    }
  }
  const std::uint64_t batches = ph.after.batches - ph.before.batches;
  const std::uint64_t accepted = ph.after.accepted - ph.before.accepted;
  report.add("service.submit_us", median(submit_us), "us", submit_us.size(), "open loop");
  report.add("service.hit_latency_p50_ms", median(hit_lat), "ms", hit_lat.size(), "open loop");
  report.add("service.miss_latency_p50_ms", median(miss_lat), "ms", miss_lat.size(), "open loop");
  report.add("service.cache_hit_ratio",
             replies ? static_cast<double>(hits) / static_cast<double>(replies) : 0.0, "ratio",
             replies, "cache hits / replies");
  report.add("service.cache_evictions",
             static_cast<double>(ph.cache_after.evictions - ph.cache_before.evictions), "count",
             replies, "during the timed phases");
  report.add("service.batch_items",
             batches ? static_cast<double>(accepted) / static_cast<double>(batches) : 0.0,
             "count", batches, "requests / dispatched batches");
  report.add("service.coalesced_ratio",
             misses ? static_cast<double>(coalesced) / static_cast<double>(misses) : 0.0, "ratio",
             misses, "coalesced / non-hit replies");
  report.add("service.max_queue_depth", static_cast<double>(max_depth), "count", ph.open.size(),
             "pending requests seen by the open-loop generator at each send");
  report.add("service.shed", static_cast<double>(ph.after.shed - ph.before.shed), "count", 1,
             "during the timed phases");
  report.add("loadgen.late_p99_ms", quantile(late, 0.99), "ms", late.size(),
             "generator send time - due time");
  add_miss_layers(report, corpus, shape, config, ph, *rec);
  complete_per_layer(report);
  write_span_file(*rec, opt, "service_zipf");
  return report;
}

int verifier_negative_checks() {
  int failures = 0;
  auto check = [&](bool rejected, const char* what) {
    std::cout << "  negative check: " << what << ": " << (rejected ? "rejected" : "ACCEPTED")
              << "\n";
    failures += rejected ? 0 : 1;
  };
  const service::ServerConfig config = server_config(kTiny);
  PipelineOptions options = config.options;
  options.threads = 1;

  // A small pair with strong homology, run directly (the oracle's path).
  PairModel model;
  model.length_a = 40000;
  model.segments = {{60.0, 300, 900, 0.92}};
  const SyntheticPair pair = generate_pair(model, 77);
  AlignRequest req;
  req.a = pair.a;
  req.b = pair.b;
  req.params = lastz_default_params();
  {
    const FastzStudy study(req.a, req.b, req.params, options);
    if (study.alignments().empty()) {
      std::cout << "  negative checks: the homologous pair produced no alignment\n";
      return 1;
    }
    AlignOutcome reply;
    reply.alignments = study.alignments();
    reply.seeds = study.seeds();
    reply.inspector_cells = study.inspector_cells();
    reply.modeled_gpu_s = study.derive(config.config, config.device).modeled.total_s();
    const Digest128 expected = outcome_digest(reply);

    // Corrupted alignment (the benchmark's own copy): one op changed.
    std::vector<Alignment> alns = study.alignments();
    Alignment& victim = alns.front();
    const std::size_t mid = victim.ops.size() / 2;
    victim.ops[mid] = victim.ops[mid] == AlignOp::Match ? AlignOp::Insert : AlignOp::Match;
    check(first_misscored(alns, req.a, req.b, req.params) >= 0,
          "alignment with a flipped op fails rescoring");
    check(!(digest_alignments(alns) == digest_alignments(study.alignments())),
          "alignment with a flipped op fails the digest comparison");

    // A LASTZ alignment wider than every FastZ alignment is uncovered.
    Alignment wide = study.alignments().front();
    wide.a_begin = 0;
    wide.a_end = req.a.size();
    check(!uncovered_lastz(study.alignments(), {wide}).empty(),
          "LASTZ alignment outside every FastZ alignment is reported uncovered");

    // Corrupted service replies (copies): a changed score, a modeled time
    // one ulp off.
    AlignOutcome bad = reply;
    bad.alignments.front().score += 1;
    check(!(outcome_digest(bad) == expected), "reply with a changed score");
    bad = reply;
    bad.modeled_gpu_s = std::nextafter(bad.modeled_gpu_s, 1.0);
    check(!(outcome_digest(bad) == expected), "reply with a modeled time one ulp off");
  }
  return failures;
}

}  // namespace perfbench
