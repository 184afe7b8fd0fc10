// Long-lived alignment server: one bounded admission queue, shard workers
// that seal their own micro-batches, and a content-addressed result cache.
//
// Request flow (docs/SERVICE.md has the full architecture):
//
//   submit() ──> bounded queue ──> shard worker 0..shards-1 (the first free
//                                  one lingers, seals a batch, runs it)
//                                    │ cache hit ── ResultCache
//                                    │ coalesce duplicates
//                                    │ run_functional_batch (ONE pass)
//                                    └ derive() on the worker's own vGPU
//
// - Admission control: submit() throws QueueFullError once the queue holds
//   queue_limit requests (the caller sheds; nothing blocks). Each worker
//   holds at most one batch, so the server never has more than
//   queue_limit + shards * batch_max accepted-but-unanswered requests.
// - Micro-batching: a free worker lingers batch_window_s from when it
//   first sees work (less if batch_max requests are already waiting), then
//   takes up to batch_max requests as ONE run_functional_batch call — one
//   seed-index build per distinct target, one pass sweep. Only one worker
//   lingers at a time, so batch windows follow one another and never
//   overlap. batch_max = 1 takes each request alone with no linger
//   (the A/B baseline the bench compares against); results are
//   bit-identical either way.
// - Caching: answers repeat keys (request_key) from the ResultCache
//   without touching the pipeline; per-batch duplicates run once.
//   cache_max_entries = 0 (or cache_max_bytes = 0) turns the cache off:
//   every lookup misses and is counted as a miss.
// - Sharding: worker s owns virtual GPU s of the gpusim::ShardSet and is
//   charged the derived device seconds of every batch it runs. A batch
//   goes to whichever worker is free, never behind a busy one.
//
// Thread-safety: every public method may be called from any thread. The
// returned futures become ready from worker threads; a request whose
// processing throws carries the exception through its future. shutdown()
// (and the destructor) stop admission, drain everything already accepted,
// and join all threads. While paused no batch starts (a worker that was
// lingering puts its queue back), so tests can stage a known queue and
// then observe exactly one coalesced dispatch after resume().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "align/lastz_pipeline.hpp"
#include "fastz/config.hpp"
#include "fastz/multi_gpu.hpp"
#include "gpusim/device_spec.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "telemetry/trace_context.hpp"

namespace fastz::service {

struct ServerConfig {
  std::size_t queue_limit = 64;   // pending requests before sheds begin
  std::size_t batch_max = 8;      // per-dispatch coalescing ceiling; 1 = no batching
  double batch_window_s = 2e-4;   // linger after the first waiting request
  std::size_t shards = 1;         // worker threads, one virtual GPU each
  std::size_t threads_per_shard = 1;  // functional-pass workers per dispatch
  std::size_t cache_max_entries = 1024;  // 0 = no cache
  std::size_t cache_max_bytes = std::size_t{64} << 20;
  // Latency objective (SLO) per request, 0 = none. Breaches are counted,
  // recorded in the flight recorder, and (with postmortem_path set) dump a
  // post-mortem the first time.
  double latency_objective_s = 0.0;
  // Prefix for flight-recorder post-mortem dumps. When non-empty the
  // server writes "<prefix>.<cause>.json" on the first queue-full shed,
  // the first latency-objective breach, and at shutdown drain.
  std::string postmortem_path;
  PipelineOptions options;        // server-wide pipeline knobs (not keyed)
  FastzConfig config = FastzConfig::full();       // derived configuration
  gpusim::DeviceSpec device = gpusim::titan_x_pascal();  // per-shard vGPU
};

// Monotonic service counters (snapshot): the service's one count of each
// event (docs/TELEMETRY.md). The registry holds only latency sketches.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;          // admission rejections, every cause
  std::uint64_t shed_queue_full = 0;  // bounded queue at capacity
  std::uint64_t shed_shutdown = 0;    // submitted after shutdown() began
  std::uint64_t slo_breaches = 0;  // completions over latency_objective_s
  std::uint64_t completed = 0;     // futures fulfilled (errors included)
  std::uint64_t cache_hits = 0;    // = cache_stats().hits
  std::uint64_t coalesced = 0;     // in-batch duplicates served by one run
  std::uint64_t batches = 0;       // run_functional_batch dispatches
  std::uint64_t pipeline_items = 0;  // items actually run (misses, deduped)
  std::size_t max_queue_depth = 0;
};

class AlignmentServer {
 public:
  // `start_paused = true` keeps every worker from starting a batch until
  // resume() — deterministic tests stage a queue first.
  explicit AlignmentServer(ServerConfig config, bool start_paused = false);
  ~AlignmentServer();

  AlignmentServer(const AlignmentServer&) = delete;
  AlignmentServer& operator=(const AlignmentServer&) = delete;

  // Enqueues the request. Throws QueueFullError when the pending queue is
  // at queue_limit, ShutdownError after shutdown() began. The future
  // resolves from a worker thread.
  std::future<AlignResult> submit(AlignRequest request);

  void pause();
  void resume();

  // Stops admission, drains every accepted request, joins all threads.
  // Idempotent; the destructor calls it.
  void shutdown();

  std::size_t queue_depth() const;
  ServerStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  const gpusim::ShardSet& shard_set() const { return shards_; }
  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    AlignRequest request;
    Digest128 key;
    std::promise<AlignResult> promise;
    telemetry::TraceContext trace;  // request id minted at submit; batch id
                                    // stamped when a worker seals a batch
    double submitted_us = 0.0;      // TraceRecorder clock, for retro spans
                                    // and latency accounting
  };
  using Batch = std::vector<Pending>;

  // Waits on the admission queue, lingers, seals a batch and runs it on
  // `shard`, until shutdown has drained the queue.
  void worker_loop(std::size_t shard);
  void process_batch(std::size_t shard, Batch batch);
  // First-occurrence-per-cause flight-recorder dump (no-op without
  // postmortem_path).
  void maybe_dump_postmortem(const char* cause, std::atomic<bool>& once);

  ServerConfig config_;
  ResultCache cache_;
  gpusim::ShardSet shards_;

  mutable std::mutex mutex_;  // guards pending_ and the three flags below
  std::condition_variable cv_;  // workers wait here for work or shutdown
  std::deque<Pending> pending_;
  bool paused_ = false;
  bool stopping_ = false;
  bool lingering_ = false;  // a worker is in its batch window

  // Monotonic counters; workers bump them without taking mutex_.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
  std::atomic<std::uint64_t> slo_breaches_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> pipeline_items_{0};
  std::atomic<std::size_t> max_queue_depth_{0};

  std::atomic<bool> postmortem_queue_full_{false};
  std::atomic<bool> postmortem_slo_{false};

  std::vector<std::thread> workers_;
  std::mutex join_mutex_;  // serializes concurrent shutdown() callers
  bool joined_ = false;    // guarded by join_mutex_
};

}  // namespace fastz::service
