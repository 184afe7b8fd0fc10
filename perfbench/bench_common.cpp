#include "bench_common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "fastz/config.hpp"
#include "fastz/executor.hpp"
#include "fastz/inspector.hpp"
#include "seed/seed_index.hpp"
#include "seed/spaced_seed.hpp"
#include "telemetry/chrome_trace.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace fastz;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull ^ (purpose << 32) ^ index);
  sm.next();
  return sm.next();
}

// ---------------------------------------------------------------------------
// Report

void Report::mismatch(const std::string& what) {
  ++mismatches_;
  ++failed_;
  if (log_.size() < 8) log_.push_back(what);
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string base) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(base)});
}

namespace {

// Shortest round-trip decimal form; infinity (an infinitely late request)
// becomes the largest finite double so the line stays valid JSON.
std::string json_number(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::print(std::ostream& out) const {
  out << "workload " << workload_ << ": attempted " << attempted_ << ", failed "
      << failed_ << " (verification mismatches " << mismatches_ << ")\n";
  for (const std::string& line : log_) out << "  mismatch: " << line << "\n";
  for (const Metric& m : metrics_) {
    out << "  " << std::left << std::setw(36) << m.name << std::right << std::setw(16)
        << json_number(m.value) << " " << std::left << std::setw(7) << m.unit
        << " n=" << m.samples;
    if (!m.base.empty()) out << "  [" << m.base << "]";
    out << "\n";
  }
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Verification helpers

Digest128 digest_alignments(const std::vector<Alignment>& alignments) {
  DigestBuilder d;
  d.update_u64(alignments.size());
  for (const Alignment& aln : alignments) {
    d.update_u64(aln.a_begin).update_u64(aln.a_end);
    d.update_u64(aln.b_begin).update_u64(aln.b_end);
    d.update_i64(aln.score);
    d.update_sized(aln.ops.data(), aln.ops.size());
  }
  return d.finish();
}

long first_misscored(const std::vector<Alignment>& alignments, const Sequence& a,
                     const Sequence& b, const ScoreParams& params) {
  for (std::size_t i = 0; i < alignments.size(); ++i) {
    try {
      if (rescore_alignment(alignments[i], a, b, params) != alignments[i].score) {
        return static_cast<long>(i);
      }
    } catch (const std::exception&) {
      return static_cast<long>(i);  // ops inconsistent with the coordinates
    }
  }
  return -1;
}

std::vector<std::size_t> uncovered_lastz(const std::vector<Alignment>& fastz_alignments,
                                         const std::vector<Alignment>& lastz_alignments) {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < lastz_alignments.size(); ++i) {
    const Alignment& l = lastz_alignments[i];
    const bool covered = std::any_of(
        fastz_alignments.begin(), fastz_alignments.end(), [&](const Alignment& f) {
          return f.a_begin <= l.a_begin && f.a_end >= l.a_end && f.b_begin <= l.b_begin &&
                 f.b_end >= l.b_end && f.score >= l.score;
        });
    if (!covered) missing.push_back(i);
  }
  return missing;
}

// ---------------------------------------------------------------------------
// Spans

namespace {

std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

void SpanRecorder::add(const SpanRecord& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool SpanRecorder::write(const std::string& path) const {
  std::vector<telemetry::TraceEvent> events;
  for (const SpanRecord& s : spans()) {
    telemetry::TraceEvent e;
    e.name = s.name;
    e.category = "perfbench";
    e.ts_us = s.start_us;
    e.dur_us = s.end_us - s.start_us;
    e.tid = s.tid;
    e.args = {{"id", static_cast<double>(s.id)},
              {"parent", static_cast<double>(s.parent)},
              {"unit", static_cast<double>(s.unit)}};
    events.push_back(std::move(e));
  }
  std::ofstream out(path);
  if (!out) return false;
  telemetry::write_chrome_trace(out, events, "perfbench");
  return static_cast<bool>(out);
}

void write_span_file(const SpanRecorder& rec, const Options& options,
                     const std::string& workload) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path =
      options.trace_dir + "/" + workload + "-seed" + std::to_string(options.seed) + ".json";
  if (rec.write(path)) {
    std::cout << "span file: " << path << " (" << rec.spans().size() << " spans)\n";
  } else {
    std::cerr << "perfbench: cannot write span file " << path << "\n";
  }
}

Span::Span(SpanRecorder* rec, const char* name, std::uint64_t parent, std::uint64_t unit)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  record_.name = name;
  record_.id = rec_->next_id();
  record_.parent = parent;
  record_.unit = unit;
  record_.tid = thread_lane();
  record_.start_us = rec_->now_us();
}

Span::~Span() {
  if (rec_ == nullptr) return;
  record_.end_us = rec_->now_us();
  rec_->add(record_);
}

SpanTotals span_totals(const std::vector<SpanRecord>& spans, const std::string& name) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  SpanTotals totals;
  for (const SpanRecord& s : spans) {
    if (name != s.name) continue;
    const double dur = s.end_us - s.start_us;
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Union of child intervals clipped to the span: children of a parallel
      // loop overlap each other, and overlap must count once.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    totals.self_s += (dur - covered) * 1e-6;
    ++totals.count;
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Replay

namespace {

// CPU seconds of the calling thread. On a virtual machine this excludes
// hypervisor steal, which otherwise lands on whichever seed was running.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ReplayResult replay_pass(const Sequence& a, const Sequence& b, const ScoreParams& params,
                         const PipelineOptions& options, std::size_t threads,
                         SpanRecorder* rec, std::uint64_t unit, std::uint64_t parent) {
  ReplayResult r;
  Span pass_span(rec, "fastz.replay_pass", parent, unit);
  const SpacedSeed seed = SpacedSeed::lastz_default();
  const FastzConfig functional = FastzConfig::full();

  std::vector<SeedHit> hits;
  {
    std::optional<SeedIndex> index;
    {
      Span span(rec, "seed.index", pass_span.id(), unit);
      index.emplace(a, seed, options.index_step);
    }
    Span span(rec, "seed.hits", pass_span.id(), unit);
    hits = index->find_hits(b, options.max_seeds, options.sample_seed,
                            options.seed_transitions);
  }
  r.hits = hits.size();

  const std::size_t n = hits.size();
  std::vector<SeedInspection> inspections(n);
  std::vector<Alignment> executed(n);
  std::vector<char> has_alignment(n, 0);
  std::vector<double> latency_s(n, 0.0);
  std::vector<std::uint64_t> exec_cells(n, 0);
  const auto process = [&](std::size_t idx) {
    const double t0 = thread_cpu_s();
    {
      Span span(rec, "fastz.inspect_seed", pass_span.id(), unit);
      inspections[idx] = inspect_seed(a, b, hits[idx], seed.span(), params, functional,
                                      options.one_sided);
    }
    if (inspections[idx].eager) {
      has_alignment[idx] = inspections[idx].score >= params.gapped_threshold;
    } else {
      Span span(rec, "fastz.execute_seed", pass_span.id(), unit);
      ExecutorOutcome exec =
          execute_seed(a, b, inspections[idx], params, functional, options.one_sided);
      exec_cells[idx] = exec.cells;
      if (exec.alignment.score >= params.gapped_threshold) {
        has_alignment[idx] = 1;
        executed[idx] = std::move(exec.alignment);
      }
    }
    latency_s[idx] = thread_cpu_s() - t0;
  };
  const std::size_t workers =
      std::min<std::size_t>(resolve_thread_count(threads), std::max<std::size_t>(1, n));
  if (workers <= 1) {
    for (std::size_t idx = 0; idx < n; ++idx) process(idx);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(n, process);
  }

  {
    Span span(rec, "fastz.assemble", pass_span.id(), unit);
    for (std::size_t idx = 0; idx < n; ++idx) {
      const SeedInspection& insp = inspections[idx];
      r.inspector_cells += insp.search_cells();
      if (insp.eager) {
        ++r.eager;
        if (has_alignment[idx]) r.alignments.push_back(insp.alignment);
      } else {
        ++r.tasks;
        r.executor_cells += exec_cells[idx];
        if (has_alignment[idx]) {
          ++r.task_yield;
          r.alignments.push_back(std::move(executed[idx]));
        }
      }
    }
    if (options.deduplicate) deduplicate_alignments(r.alignments);
  }
  r.seed_latency_s = std::move(latency_s);
  return r;
}

}  // namespace perfbench
