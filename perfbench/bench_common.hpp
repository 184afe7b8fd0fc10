// Shared plumbing of the repository benchmark: clocks, order statistics,
// the run report, alignment digests, the per-seed replay of the functional
// pass through the public layer API, and the in-memory span recorder of
// traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "align/lastz_pipeline.hpp"
#include "score/score_params.hpp"
#include "sequence/sequence.hpp"
#include "util/digest.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Latency limit of goodput_rps (fixed in BENCHMARK.json's command).
  double latency_limit_ms = 250.0;
  // Self-test scale: tiny inputs, same code paths.
  bool tiny = false;
  // Where traced runs write their span file.
  std::string trace_dir = ".bench_build/perfbench-traces";
};

// Order statistics (linear interpolation between closest ranks). Empty
// input yields 0.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// Resident-set high-water mark of this process, MiB.
double peak_rss_mb();

// Deterministic 64-bit stream derivation: every input a workload makes is
// drawn from mix(workload seed, purpose, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0);

// One printed metric. `samples` is the count the value summarizes; `base`
// names the denominator of a ratio or share.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string base;
};

// Result of one run: operations attempted and failed, verification
// mismatches (each one also a failed operation), and the metrics. print()
// writes a human-readable table and, as the last stdout line, the JSON
// object {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  // An operation that failed without a wrong answer (shed, error).
  void fail_operation(std::uint64_t n = 1) { failed_ += n; }
  // A verification mismatch: a failed operation and an incorrect run.
  void mismatch(const std::string& what);
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string base = "");

  bool correct() const noexcept { return mismatches_ == 0; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  std::vector<Metric>& metrics() noexcept { return metrics_; }

  void print(std::ostream& out) const;

 private:
  std::string workload_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> log_;  // first few mismatch descriptions
  std::vector<Metric> metrics_;
};

// Digest of an alignment list: coordinates, score and every op, in order.
fastz::Digest128 digest_alignments(const std::vector<fastz::Alignment>& alignments);

// First alignment whose score differs from its rescoring against the
// sequences (or whose ops do not fit its coordinates), or -1 when every
// alignment rescores exactly.
long first_misscored(const std::vector<fastz::Alignment>& alignments,
                     const fastz::Sequence& a, const fastz::Sequence& b,
                     const fastz::ScoreParams& params);

// Indices of LASTZ alignments not covered by any FastZ alignment (same or
// larger extent with at least the score — the paper's correctness rule).
std::vector<std::size_t> uncovered_lastz(const std::vector<fastz::Alignment>& fastz_alignments,
                                         const std::vector<fastz::Alignment>& lastz_alignments);

// ---------------------------------------------------------------------------
// Spans of a traced run, kept in memory and written at the end.

struct SpanRecord {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t unit = 0;    // pair or request id shared by the unit's spans
  std::uint32_t tid = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  double now_us() const;
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(const SpanRecord& span);
  std::vector<SpanRecord> spans() const;
  // Chrome trace-event JSON (telemetry::write_chrome_trace); false when the
  // file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// Writes `rec` to <options.trace_dir>/<workload>-seed<N>.json and prints
// where it went (or, on stderr, that it could not be written).
void write_span_file(const SpanRecorder& rec, const Options& options,
                     const std::string& workload);

// Scoped span; a null recorder makes it free of side effects, so the same
// code path serves traced and untraced runs.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name, std::uint64_t parent, std::uint64_t unit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const noexcept { return record_.id; }

 private:
  SpanRecorder* rec_;
  SpanRecord record_;
};

// Per-name totals over a span list: summed self time (the duration minus
// the union of the intervals its child spans cover) and span count.
struct SpanTotals {
  double self_s = 0.0;
  std::uint64_t count = 0;
};
SpanTotals span_totals(const std::vector<SpanRecord>& spans, const std::string& name);

// ---------------------------------------------------------------------------
// Replay of FastzStudy's functional pass through the public layer API:
// SeedIndex + find_hits (seed), inspect_seed and execute_seed (fastz) per
// seed on `threads` workers, then serial assembly and dedup in seed order.
// It reproduces FastzStudy's alignments exactly.

struct ReplayResult {
  std::vector<fastz::Alignment> alignments;
  std::uint64_t hits = 0;
  std::uint64_t eager = 0;
  std::uint64_t inspector_cells = 0;
  std::uint64_t tasks = 0;            // seeds the executor ran
  std::uint64_t executor_cells = 0;
  std::uint64_t task_yield = 0;       // executor tasks clearing the threshold
  // inspect + execute per seed, on the worker's thread CPU clock
  std::vector<double> seed_latency_s;
};

ReplayResult replay_pass(const fastz::Sequence& a, const fastz::Sequence& b,
                         const fastz::ScoreParams& params,
                         const fastz::PipelineOptions& options, std::size_t threads,
                         SpanRecorder* rec = nullptr, std::uint64_t unit = 0,
                         std::uint64_t parent = 0);

}  // namespace perfbench
