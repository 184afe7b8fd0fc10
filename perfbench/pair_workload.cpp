// The chromosome-pair workload: the functional pass (FastzStudy) plus
// derive() of the full configuration on the Ampere virtual GPU, repeated
// closed-loop over a set of synthetic nematode chromosome pairs made from
// the workload seed.
//
// Why a set of pairs and not one: the work of a pair is dominated by its few
// longest homology segments, so one pair per seed would make the seed, not
// the program, the largest source of spread. Each pair's segment counts are
// fixed at the model's expectation and segment lengths at the class
// midpoint; the seed still moves every base, every segment's placement, the
// mutation channel and the seed-site sample.
//
// Each pair's timed pass is followed by its reference replay, which
// verifies the pass and times every seed extension, so pair_s and the
// per-seed latencies sample the same stretch of the run.
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "layers.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "sequence/genome_synth.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fastz;

namespace {

struct PairWorkload {
  const char* name;
  const char* label;         // benchmark_pairs model the pairs are drawn from
  double scale;              // chromosome scale relative to Table 1
  std::size_t max_seeds;     // seed-site cap per pair
  std::size_t threads;       // functional-pass workers
  std::size_t pairs;         // distinct pairs per run
};

constexpr PairWorkload kNematode{"nematode_pair", "C1_5,5", 0.012, 4000, 2, 8};

// Threads of the reference replay (the verification pass, which also times
// each seed extension): all cores but one, so a seed's latency is not
// inflated by the rest of the process being scheduled over it.
constexpr std::size_t kReferenceThreads = 3;
constexpr int kSetupRepeats = 41;

struct PairInput {
  SyntheticPair data;
  PipelineOptions options;
};

ScoreParams pair_params() {
  ScoreParams params = lastz_default_params();
  params.ydrop = 2000;  // the figure benches' harness default (report/experiment.hpp)
  return params;
}

std::vector<PairInput> make_pairs(const PairWorkload& w, std::uint64_t seed, bool tiny) {
  BenchmarkPair spec = find_pair(w.label, tiny ? w.scale / 8 : w.scale);
  const double mbp = static_cast<double>(spec.model.length_a) / 1e6;
  for (SegmentClass& cls : spec.model.segments) {
    cls.per_mbp = std::round(cls.per_mbp * mbp) / mbp;
    cls.min_len = cls.max_len = (cls.min_len + cls.max_len) / 2;
  }
  std::vector<PairInput> pairs;
  const std::size_t count = tiny ? 2 : w.pairs;
  for (std::size_t k = 0; k < count; ++k) {
    PairInput in;
    in.data = generate_pair(spec.model, mix(seed, 1, k), spec.species_a, spec.species_b);
    in.options.max_seeds = tiny ? w.max_seeds / 8 : w.max_seeds;
    in.options.sample_seed = mix(seed, 2, k);
    in.options.threads = w.threads;
    pairs.push_back(std::move(in));
  }
  return pairs;
}

// Everything of one pass that must repeat exactly: the functional counts,
// the launch counts and the modeled time's bits.
Digest128 run_signature(const FastzStudy& study, const FastzRun& run) {
  DigestBuilder d;
  std::uint64_t modeled_bits = 0;
  const double modeled = run.modeled.total_s();
  std::memcpy(&modeled_bits, &modeled, sizeof(modeled_bits));
  d.update_u64(study.seeds()).update_u64(study.inspector_cells());
  d.update_u64(study.alignments().size()).update_u64(run.executor_tasks);
  d.update_u64(run.executor_cells).update_u64(run.eager_handled);
  d.update_u64(run.inspector_launches).update_u64(run.executor_kernels);
  d.update_u64(modeled_bits);
  return d.finish();
}

struct PairState {
  bool seen = false;
  Digest128 alignments;
  Digest128 signature;
  std::uint64_t seeds = 0;
  std::uint64_t inspector_cells = 0;
  double modeled_ms = 0.0;
};

const gpusim::DeviceSpec& device() {
  static const gpusim::DeviceSpec spec = gpusim::rtx3080_ampere();
  return spec;
}

// One timed pass: FastzStudy construction + derive(). Untimed, it derives
// once more and checks both derives and the pass against the pair's first
// pass (alignment digest and every count).
double timed_pass(const PairInput& in, const ScoreParams& params, std::size_t k,
                  PairState& state, Report& report, double* derive_s = nullptr,
                  std::unique_ptr<FastzStudy>* keep = nullptr, FastzRun* run_out = nullptr) {
  const auto t0 = Clock::now();
  auto study = std::make_unique<FastzStudy>(in.data.a, in.data.b, params, in.options);
  const auto t1 = Clock::now();
  const FastzRun run = study->derive(FastzConfig::full(), device());
  const double seconds = seconds_since(t0);
  if (derive_s) *derive_s = seconds_since(t1);
  report.attempt();
  const Digest128 aln = digest_alignments(study->alignments());
  const Digest128 sig = run_signature(*study, run);
  if (!(run_signature(*study, study->derive(FastzConfig::full(), device())) == sig)) {
    report.mismatch("pair " + std::to_string(k) + ": derive() does not repeat exactly");
  }
  if (!state.seen) {
    state = {true, aln, sig, study->seeds(), study->inspector_cells(),
             run.modeled.total_s() * 1e3};
  } else if (!(aln == state.alignments) || !(sig == state.signature)) {
    report.mismatch("pair " + std::to_string(k) +
                    ": a repeat pass differs from the first (alignments or counts)");
  }
  if (run_out) *run_out = run;
  if (keep) *keep = std::move(study);
  return seconds;
}

// Whether to start another round: rounds are whole, and the run stops at
// the round boundary nearest to the time budget.
bool another_round(double elapsed_s, std::size_t rounds, double budget_s) {
  const double per_round = elapsed_s / static_cast<double>(rounds);
  return elapsed_s + per_round / 2 < budget_s;
}

double run_setup(const PairWorkload& w, const Options& opt, std::vector<PairInput>& pairs,
                 std::size_t& samples) {
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    pairs = make_pairs(w, opt.seed, opt.tiny);
    setups.push_back(seconds_since(t0));
  }
  samples = setups.size();
  return median(setups);
}

Report run_untraced(const PairWorkload& w, const Options& opt) {
  Report report(w.name);
  const ScoreParams params = pair_params();
  std::vector<PairInput> pairs;
  std::size_t setup_samples = 0;
  const double setup_s = run_setup(w, opt, pairs, setup_samples);

  // Timed phase: whole rounds over the pair set, each pair's timed pass
  // followed by its reference replay, which verifies the pass and times
  // every seed extension. The replay is the public-API reproduction of
  // FastzStudy (bench_common.hpp); every round must reproduce the same
  // alignment digest and counts.
  std::vector<PairState> state(pairs.size());
  std::vector<double> pass_s;
  std::vector<double> seed_latency;
  std::vector<Alignment> lastz_pair_alignments;
  const std::size_t lastz_pair = opt.seed % pairs.size();
  std::size_t rounds = 0;
  const auto start = Clock::now();
  for (;;) {
    ++rounds;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const PairInput& in = pairs[k];
      pass_s.push_back(timed_pass(in, params, k, state[k], report));
      ReplayResult ref =
          replay_pass(in.data.a, in.data.b, params, in.options, kReferenceThreads);
      report.attempt(ref.hits);
      if (!(digest_alignments(ref.alignments) == state[k].alignments) ||
          ref.hits != state[k].seeds || ref.inspector_cells != state[k].inspector_cells) {
        report.mismatch("pair " + std::to_string(k) + ": timed passes differ from the reference");
      }
      seed_latency.insert(seed_latency.end(), ref.seed_latency_s.begin(),
                          ref.seed_latency_s.end());
      if (rounds == 1) {
        if (const long bad = first_misscored(ref.alignments, in.data.a, in.data.b, params);
            bad >= 0) {
          report.mismatch("pair " + std::to_string(k) + ": alignment " + std::to_string(bad) +
                          " does not rescore to its score");
        }
        if (k == lastz_pair) lastz_pair_alignments = std::move(ref.alignments);
      }
    }
    if (!another_round(seconds_since(start), rounds, opt.seconds)) break;
  }
  const double timed_s = seconds_since(start);
  const double rss_mb = peak_rss_mb();
  const auto t_verify = Clock::now();

  // Verification (untimed): sequential LASTZ's alignments of one pair must
  // all be covered by FastZ's.
  {
    const PairInput& in = pairs[lastz_pair];
    const PipelineResult lastz = run_lastz(in.data.a, in.data.b, params, in.options);
    for (const std::size_t i : uncovered_lastz(lastz_pair_alignments, lastz.alignments)) {
      const Alignment& l = lastz.alignments[i];
      report.mismatch("pair " + std::to_string(lastz_pair) + ": LASTZ alignment [" +
                      std::to_string(l.a_begin) + "," + std::to_string(l.a_end) + ") x [" +
                      std::to_string(l.b_begin) + "," + std::to_string(l.b_end) +
                      ") not covered");
    }
  }

  std::cout << "phases: setup " << setup_s << " s (median of " << setup_samples
            << "), timed " << timed_s << " s (" << rounds << " rounds of " << pairs.size()
            << " passes + replays), LASTZ check " << seconds_since(t_verify) << " s\n";
  std::vector<double> modeled;
  for (const PairState& s : state) modeled.push_back(s.modeled_ms);
  // Goodput per second of extension time, not of replay wallclock: the
  // pool's contiguous chunks split the few long seeds differently for every
  // input, and the replay's wallclock swings with that split.
  std::size_t within = 0;
  double busy_s = 0.0;
  for (const double s : seed_latency) {
    within += s * 1e3 <= opt.latency_limit_ms;
    busy_s += s;
  }

  report.add("pair_s", median(pass_s), "s", pass_s.size(),
             "median FastzStudy + derive per pair");
  report.add("modeled_gpu_ms", mean(modeled), "ms", modeled.size(),
             "modeled clock, mean per pair");
  report.add("latency_p50_ms", quantile(seed_latency, 0.50) * 1e3, "ms", seed_latency.size(),
             "per seed extension, reference replay");
  report.add("latency_p99_ms", quantile(seed_latency, 0.99) * 1e3, "ms", seed_latency.size(),
             "per seed extension, reference replay");
  report.add("goodput_rps", busy_s > 0 ? static_cast<double>(within) / busy_s : 0.0, "1/s",
             seed_latency.size(),
             "seed extensions within the limit per second of extension time");
  report.add("setup_s", setup_s, "s", setup_samples, "median input generation");
  report.add("peak_rss_mb", rss_mb, "MiB", 1, "after the timed phase");
  return report;
}

Report run_traced(const PairWorkload& w, const Options& opt) {
  Report report(w.name);
  const ScoreParams params = pair_params();
  std::vector<PairInput> pairs;
  std::size_t setup_samples = 0;
  run_setup(w, opt, pairs, setup_samples);

  SpanRecorder rec;
  std::vector<PairState> state(pairs.size());
  std::vector<LayerUnit> units;
  std::vector<double> imbalance;
  const auto start = Clock::now();
  std::uint64_t unit_id = 0;
  for (std::size_t round = 1;; ++round) {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const PairInput& in = pairs[k];
      LayerUnit unit;
      std::unique_ptr<FastzStudy> study;
      const double wall = timed_pass(in, params, k, state[k], report, &unit.derive_s, &study,
                                     &unit.run);
      unit.pass_s = wall - unit.derive_s;

      ++unit_id;
      const auto t0 = Clock::now();
      {
        Span pair_span(&rec, "pair", 0, unit_id);
        ReplayResult replay =
            replay_pass(in.data.a, in.data.b, params, in.options, w.threads, &rec, unit_id,
                        pair_span.id());
        {
          Span derive_span(&rec, "gpusim.derive", pair_span.id(), unit_id);
          (void)study->derive(FastzConfig::full(), device());
        }
        if (!(digest_alignments(replay.alignments) == state[k].alignments)) {
          report.mismatch("pair " + std::to_string(k) + ": replay differs from FastzStudy");
        }
        if (round == 1 && first_misscored(replay.alignments, in.data.a, in.data.b, params) >= 0) {
          report.mismatch("pair " + std::to_string(k) + ": an alignment does not rescore");
        }
        unit.alignments = replay.alignments.size();
        replay.alignments.clear();
        replay.seed_latency_s.clear();
        unit.replay = std::move(replay);
      }
      unit.traced_s = seconds_since(t0);
      if (imbalance.size() < pairs.size()) {
        imbalance.push_back(profiled_load_imbalance(*study, FastzConfig::full(), device()));
      }
      units.push_back(std::move(unit));
    }
    if (!another_round(seconds_since(start), round, opt.seconds)) break;
  }

  add_pipeline_layers(report, rec.spans(), units, w.threads, imbalance);
  complete_per_layer(report);
  write_span_file(rec, opt, w.name);
  return report;
}

}  // namespace

Report run_nematode_pair(const Options& options) {
  return options.trace ? run_traced(kNematode, options) : run_untraced(kNematode, options);
}

}  // namespace perfbench
