#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fastz/fastz_pipeline.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"

namespace fastz::service {

AlignmentServer::AlignmentServer(ServerConfig config, bool start_paused)
    : config_(std::move(config)),
      cache_(config_.cache_max_entries, config_.cache_max_bytes),
      shards_(std::max<std::size_t>(1, config_.shards), config_.device) {
  if (config_.queue_limit == 0) {
    throw std::invalid_argument("AlignmentServer: queue_limit must be >= 1");
  }
  if (config_.batch_max == 0) {
    throw std::invalid_argument("AlignmentServer: batch_max must be >= 1");
  }
  paused_ = start_paused;
  const std::size_t n = shards_.size();
  workers_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

AlignmentServer::~AlignmentServer() { shutdown(); }

std::future<AlignResult> AlignmentServer::submit(AlignRequest request) {
  // The digest walks both sequences; keep it outside the queue lock. Every
  // request — even one about to be shed — gets an id, so post-mortem dumps
  // can name the victims.
  const Digest128 key = request_key(request.a, request.b, request.params);
  const Digest128 rid = telemetry::mint_request_id();
  auto& flight = telemetry::FlightRecorder::global();

  std::unique_lock lock(mutex_);
  if (stopping_) {
    lock.unlock();
    shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
    flight.record(telemetry::FlightEventKind::kShedShutdown, rid);
    throw ShutdownError();
  }
  if (pending_.size() >= config_.queue_limit) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t depth = pending_.size();
    lock.unlock();
    flight.record(telemetry::FlightEventKind::kShedQueueFull, rid, Digest128{},
                  depth, config_.queue_limit);
    maybe_dump_postmortem("queue_full", postmortem_queue_full_);
    throw QueueFullError(depth, config_.queue_limit);
  }
  Pending pending;
  pending.request = std::move(request);
  pending.key = key;
  pending.trace.request_id = rid;
  pending.submitted_us = telemetry::TraceRecorder::global().now_us();
  std::future<AlignResult> future = pending.promise.get_future();
  pending_.push_back(std::move(pending));
  const std::size_t depth = pending_.size();
  lock.unlock();

  accepted_.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
  cv_.notify_one();
  flight.record(telemetry::FlightEventKind::kSubmit, rid, Digest128{}, depth);
  return future;
}

void AlignmentServer::pause() {
  std::lock_guard lock(mutex_);
  paused_ = true;
}

void AlignmentServer::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t AlignmentServer::queue_depth() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

ServerStats AlignmentServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  s.shed = s.shed_queue_full + s.shed_shutdown;
  s.slo_breaches = slo_breaches_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.stats().hits;
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.pipeline_items = pipeline_items_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

void AlignmentServer::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  {
    // Serialize concurrent shutdown() callers around the joins; joined_
    // flips only after every thread is down. Workers drain the queue
    // before they exit.
    std::lock_guard join_lock(join_mutex_);
    if (joined_) return;
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    joined_ = true;
    // Every accepted request is answered by now; leave the drain marker and
    // the post-mortem (the dump doubles as the service's black box for
    // whatever happened during the run).
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEventKind::kShutdownDrain, Digest128{}, Digest128{},
        completed_.load(std::memory_order_relaxed));
    if (!config_.postmortem_path.empty()) {
      telemetry::FlightRecorder::global().dump_json_file(
          config_.postmortem_path + ".shutdown_drain.json", "shutdown_drain");
    }
  }
}

void AlignmentServer::maybe_dump_postmortem(const char* cause,
                                            std::atomic<bool>& once) {
  if (config_.postmortem_path.empty()) return;
  bool expected = false;
  if (!once.compare_exchange_strong(expected, true, std::memory_order_relaxed)) {
    return;
  }
  telemetry::FlightRecorder::global().dump_json_file(
      config_.postmortem_path + "." + cause + ".json", cause);
}

void AlignmentServer::worker_loop(std::size_t shard) {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stopping_ || (!paused_ && !lingering_ && !pending_.empty());
    });
    if (pending_.empty()) return;  // stopping and drained
    // Linger: give concurrent arrivals batch_window_s (measured from the
    // moment this worker first sees work) to coalesce, up to batch_max.
    // One worker lingers at a time, so batches form as one window after
    // another. Draining at shutdown skips the window.
    if (!stopping_ && pending_.size() < config_.batch_max) {
      lingering_ = true;
      cv_.wait_for(lock, std::chrono::duration<double>(config_.batch_window_s),
                   [&] { return stopping_ || pending_.size() >= config_.batch_max; });
      lingering_ = false;
      if (paused_ && !stopping_) continue;  // paused mid-linger: hold the queue
      if (pending_.empty()) continue;       // the shutdown drain took it
    }
    const std::size_t take = std::min(config_.batch_max, pending_.size());
    Batch batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    // Whatever is left is for another free worker: this one is busy until
    // its batch is answered.
    const bool leftover = !pending_.empty();
    lock.unlock();
    if (leftover) cv_.notify_one();

    // Seal the batch under one freshly-minted batch id: every member's
    // spans, flight events, and kernel launches carry it from here on.
    const Digest128 batch_id = telemetry::mint_batch_id();
    for (Pending& p : batch) p.trace.batch_id = batch_id;
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEventKind::kBatchDispatch, Digest128{}, batch_id,
        batch.size(), shard);
    process_batch(shard, std::move(batch));
    lock.lock();
  }
}

void AlignmentServer::process_batch(std::size_t shard, Batch batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  const bool telem = telemetry::enabled();
  auto& flight = telemetry::FlightRecorder::global();
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::global();
  auto& reg = telemetry::MetricsRegistry::global();
  const double batch_start_us = rec.now_us();
  const Digest128 batch_id =
      batch.empty() ? Digest128{} : batch.front().trace.batch_id;
  const std::string batch_hex = telemetry::trace_id_hex(batch_id);

  // Request-lifecycle spans live on their own trace process (pid 3, one of
  // a few dozen lanes keyed by the request counter) so the per-request
  // timeline does not fight the worker thread's own lane for nesting.
  const auto lane_of = [](const Digest128& rid) {
    return static_cast<std::uint32_t>(1 + (rid.lo & 0xFFFFFF) % 61);
  };
  if (telem) {
    // Retro-recorded queue-wait spans: submit to the start of processing
    // (the worker's linger included — that is the point of the span).
    for (const Pending& p : batch) {
      const double wait_us = batch_start_us - p.submitted_us;
      reg.sketch("service.latency.queue_wait_ns")
          .record(static_cast<std::uint64_t>(wait_us * 1e3));
      telemetry::TraceEvent e;
      e.name = "service.queue_wait";
      e.category = "service";
      e.ts_us = p.submitted_us;
      e.dur_us = wait_us;
      e.pid = 3;
      e.tid = lane_of(p.trace.request_id);
      e.str_args.emplace_back("request",
                              telemetry::trace_id_hex(p.trace.request_id));
      e.str_args.emplace_back("batch", batch_hex);
      rec.record(std::move(e));
    }
  }

  // Answers one request: promise, counters, latency sketch, SLO check,
  // retro request span, and (for coalesced duplicates) the flow arrow from
  // the owning derive. `owner_flow` is empty for non-coalesced requests.
  const auto finish = [&](Pending& p, AlignResult result, bool cache_hit,
                          const std::string& owner_flow) {
    const double end_us = rec.now_us();
    const double latency_us = end_us - p.submitted_us;
    const auto latency_ns = static_cast<std::uint64_t>(latency_us * 1e3);
    flight.record(cache_hit ? telemetry::FlightEventKind::kCacheHit
                            : telemetry::FlightEventKind::kComplete,
                  p.trace.request_id, batch_id, latency_ns, shard);
    if (config_.latency_objective_s > 0.0 &&
        latency_us > config_.latency_objective_s * 1e6) {
      slo_breaches_.fetch_add(1, std::memory_order_relaxed);
      flight.record(
          telemetry::FlightEventKind::kSloBreach, p.trace.request_id, batch_id,
          latency_ns,
          static_cast<std::uint64_t>(config_.latency_objective_s * 1e9));
      maybe_dump_postmortem("slo_breach", postmortem_slo_);
    }
    if (telem) {
      reg.sketch("service.latency.request_ns").record(latency_ns);
      if (cache_hit) {
        reg.sketch("service.latency.cache_hit_ns").record(latency_ns);
      }
      telemetry::TraceEvent e;
      e.name = cache_hit ? "service.request.cache_hit" : "service.request";
      e.category = "service";
      e.ts_us = p.submitted_us;
      e.dur_us = latency_us;
      e.pid = 3;
      e.tid = lane_of(p.trace.request_id);
      e.str_args.emplace_back("request",
                              telemetry::trace_id_hex(p.trace.request_id));
      e.str_args.emplace_back("batch", batch_hex);
      e.args = {{"shard", static_cast<double>(shard)},
                {"coalesced", owner_flow.empty() ? 0.0 : 1.0}};
      rec.record(std::move(e));
      if (!owner_flow.empty()) {
        telemetry::TraceEvent f;
        f.name = "coalesce";
        f.category = "service";
        f.phase = 'f';
        f.flow_id = owner_flow;
        f.ts_us = end_us;
        f.pid = 3;
        f.tid = lane_of(p.trace.request_id);
        rec.record(std::move(f));
      }
    }
    // Count BEFORE fulfilling: a client that wakes from future.get() must
    // see its own completion in stats()/snapshots.
    completed_.fetch_add(1, std::memory_order_relaxed);
    p.promise.set_value(std::move(result));
  };

  std::vector<bool> fulfilled(batch.size(), false);
  try {
    // 1) Cache pass: repeat keys never reach the pipeline.
    std::vector<std::size_t> misses;
    misses.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (auto hit = cache_.get(batch[i].key)) {
        AlignResult result;
        result.outcome = std::move(*hit);
        result.shard = static_cast<std::uint32_t>(shard);
        result.cache_hit = true;
        finish(batch[i], std::move(result), /*cache_hit=*/true, {});
        fulfilled[i] = true;
        continue;
      }
      misses.push_back(i);
    }

    // 2) In-batch coalescing: duplicates of one key run once.
    std::vector<std::size_t> unique;  // first-occurrence batch indices
    std::unordered_map<Digest128, std::size_t, Digest128Hash> slot_of_key;
    std::vector<std::size_t> slot_of_miss(misses.size());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      const auto [it, inserted] =
          slot_of_key.try_emplace(batch[misses[m]].key, unique.size());
      if (inserted) unique.push_back(misses[m]);
      slot_of_miss[m] = it->second;
    }

    // 3) ONE coalesced functional pass for every distinct miss. The worker
    //    carries the batch id while it runs, so any span or launch inside
    //    the pass is attributable to this batch.
    std::vector<FunctionalBatchItem> items;
    items.reserve(unique.size());
    for (const std::size_t i : unique) {
      items.push_back({&batch[i].request.a, &batch[i].request.b,
                       batch[i].request.params, config_.options});
    }
    pipeline_items_.fetch_add(items.size(), std::memory_order_relaxed);
    flight.record(telemetry::FlightEventKind::kPipelineRun, Digest128{},
                  batch_id, items.size(), shard);
    std::vector<FastzStudy> studies;
    {
      telemetry::TraceContext batch_ctx;
      batch_ctx.batch_id = batch_id;
      telemetry::ScopedTraceContext scoped(batch_ctx);
      studies = run_functional_batch(items, config_.threads_per_shard);
    }

    // 4) Derive modeled device time on this shard's virtual GPU, populate
    //    the cache, and charge the shard. Each derive runs under the owning
    //    request's context: every kernel launch it performs lands in the
    //    profiler stamped with this batch and request.
    std::vector<AlignOutcome> outcomes(unique.size());
    std::vector<double> derive_end_us(unique.size(), 0.0);
    double charged_s = 0.0;
    for (std::size_t u = 0; u < unique.size(); ++u) {
      telemetry::TraceContext ctx;
      ctx.request_id = batch[unique[u]].trace.request_id;
      ctx.batch_id = batch_id;
      telemetry::ScopedTraceContext scoped(ctx);
      const double derive_start_us = rec.now_us();
      const FastzRun run = studies[u].derive(config_.config, config_.device);
      if (telem) {
        telemetry::TraceEvent e;
        e.name = "service.derive";
        e.category = "service";
        e.ts_us = derive_start_us;
        e.dur_us = rec.now_us() - derive_start_us;
        e.str_args.emplace_back("request", telemetry::trace_id_hex(ctx.request_id));
        e.str_args.emplace_back("batch", batch_hex);
        rec.record(std::move(e));
      }
      derive_end_us[u] = rec.now_us();
      AlignOutcome outcome;
      outcome.alignments = studies[u].alignments();
      outcome.seeds = studies[u].seeds();
      outcome.inspector_cells = studies[u].inspector_cells();
      outcome.modeled_gpu_s = run.modeled.total_s();
      charged_s += outcome.modeled_gpu_s;
      cache_.put(batch[unique[u]].key, outcome);
      outcomes[u] = std::move(outcome);
    }
    shards_.charge(shard, charged_s);

    // 5) Fulfill every miss from its slot's outcome. A coalesced duplicate
    //    gets its own span plus a flow arrow from the owning derive span,
    //    emitted once per owner on first use.
    std::vector<bool> flow_started(unique.size(), false);
    for (std::size_t m = 0; m < misses.size(); ++m) {
      const std::size_t i = misses[m];
      const std::size_t u = slot_of_miss[m];
      AlignResult result;
      result.outcome = outcomes[u];
      result.shard = static_cast<std::uint32_t>(shard);
      result.coalesced = (unique[u] != i);
      std::string owner_flow;
      if (result.coalesced) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        flight.record(telemetry::FlightEventKind::kCoalesced,
                      batch[i].trace.request_id, batch_id, 0, shard);
        if (telem) {
          owner_flow =
              "coal:" +
              telemetry::trace_id_hex(batch[unique[u]].trace.request_id);
          if (!flow_started[u]) {
            flow_started[u] = true;
            telemetry::TraceEvent start;
            start.name = "coalesce";
            start.category = "service";
            start.phase = 's';
            start.flow_id = owner_flow;
            start.ts_us = derive_end_us[u];
            rec.record(std::move(start));
          }
        }
      }
      finish(batch[i], std::move(result), /*cache_hit=*/false, owner_flow);
      fulfilled[i] = true;
    }
  } catch (...) {
    // A failed batch (e.g. invalid per-request params) reports through the
    // futures of every request it had not answered yet.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (fulfilled[i]) continue;
      completed_.fetch_add(1, std::memory_order_relaxed);
      batch[i].promise.set_exception(std::current_exception());
    }
  }

  if (telem) {
    telemetry::TraceEvent e;
    e.name = "service.batch";
    e.category = "service";
    e.ts_us = batch_start_us;
    e.dur_us = rec.now_us() - batch_start_us;
    e.str_args.emplace_back("batch", batch_hex);
    e.args = {{"items", static_cast<double>(batch.size())},
              {"shard", static_cast<double>(shard)}};
    rec.record(std::move(e));
  }
}

}  // namespace fastz::service
