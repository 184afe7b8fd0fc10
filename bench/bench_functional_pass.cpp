// Microbenchmark for the host-side functional pass, in two parts:
//
//   1. The parallel functional pass: FastzStudy's inspect and execute
//      stages on a thread pool vs the serial path. The two studies are
//      verified to produce identical alignments before any time is
//      reported.
//   2. The y-drop row core, scalar vs the active SIMD ISA, over the
//      inspector's own side searches of the pair. Every side is first
//      checked against forced scalar (exit nonzero on any divergence).
//
// Both parts time their arms paired per item (the whole pass, or one side)
// with a rotating arm order, so host speed drift between arms cancels
// inside each group; each speedup is the median over repeats of the
// summed-time ratio.
//
// At --threads 1 both arms of part 1 run the serial loop and its speedup
// reads ~1x; the pool's gain needs --threads 2 or more on a host with
// that many cores.
#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/seq_view.hpp"
#include "align/ydrop_align.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "report/experiment.hpp"
#include "seed/seed_index.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "telemetry/bench_report.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace fastz;

namespace {

// Paired timing: every item runs all arms back to back, the arm order
// rotating with item and repeat, so host speed drift between arms cancels
// inside each group. Returns each repeat's summed seconds per arm.
template <std::size_t N>
std::vector<std::array<double, N>> paired_sums(
    int repeats, std::size_t items,
    const std::array<std::function<void(std::size_t)>, N>& arms) {
  std::vector<std::array<double, N>> sums(static_cast<std::size_t>(repeats),
                                          std::array<double, N>{});
  for (std::size_t rep = 0; rep < sums.size(); ++rep) {
    for (std::size_t k = 0; k < items; ++k) {
      for (std::size_t q = 0; q < N; ++q) {
        const std::size_t arm = (k + rep + q) % N;
        Timer timer;
        arms[arm](k);
        sums[rep][arm] += timer.elapsed_s();
      }
    }
  }
  return sums;
}

// Median over repeats of arm `num`'s summed time over arm `den`'s.
template <std::size_t N>
double median_ratio(const std::vector<std::array<double, N>>& sums, std::size_t num,
                    std::size_t den) {
  std::vector<double> ratios;
  for (const auto& rep : sums) ratios.push_back(rep[num] / rep[den]);
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

// Fastest repeat's summed time for one arm.
template <std::size_t N>
double min_sum(const std::vector<std::array<double, N>>& sums, std::size_t arm) {
  double best = sums.front()[arm];
  for (const auto& rep : sums) best = std::min(best, rep[arm]);
  return best;
}

void check_same_search(const OneSidedResult& want, const OneSidedResult& got,
                       const char* isa, std::size_t side) {
  const bool same_bounds =
      want.row_bounds.size() == got.row_bounds.size() &&
      std::equal(want.row_bounds.begin(), want.row_bounds.end(), got.row_bounds.begin(),
                 [](const RowBounds& x, const RowBounds& y) {
                   return x.lo == y.lo && x.hi == y.hi;
                 });
  if (got.best.score != want.best.score || got.best.i != want.best.i ||
      got.best.j != want.best.j || got.cells != want.cells || got.ops != want.ops ||
      !same_bounds) {
    throw std::runtime_error(std::string("y-drop row core (") + isa +
                             ") diverged from forced scalar on inspector side " +
                             std::to_string(side));
  }
}

void check_identical(const FastzStudy& serial, const FastzStudy& parallel) {
  if (serial.seeds() != parallel.seeds() ||
      serial.inspector_cells() != parallel.inspector_cells() ||
      serial.alignments().size() != parallel.alignments().size()) {
    throw std::runtime_error("parallel functional pass diverged from serial");
  }
  for (std::size_t i = 0; i < serial.alignments().size(); ++i) {
    const Alignment& s = serial.alignments()[i];
    const Alignment& p = parallel.alignments()[i];
    if (s.score != p.score || s.a_begin != p.a_begin || s.b_begin != p.b_begin ||
        s.ops != p.ops) {
      throw std::runtime_error("parallel functional pass diverged on alignment " +
                               std::to_string(i));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Functional-pass microbenchmark: serial vs multi-threaded FastzStudy "
      "construction, and the y-drop row core's scalar vs SIMD inspector "
      "searches.");
  add_harness_flags(cli);
  cli.add_flag("repeats", "A/B-interleaved measurement repeats (minimum 3)", "5");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_functional_pass.json");
  if (!cli.parse(argc, argv)) return 0;
  const int repeats = static_cast<int>(std::max<std::int64_t>(3, cli.get_int("repeats")));
  const std::string json_path = cli.get("json");
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const std::vector<BenchmarkPair> pairs = same_genus_pairs(options.scale);
  const BenchmarkPair& spec = pairs.front();
  const SyntheticPair data =
      generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);

  PipelineOptions serial_opts;
  serial_opts.max_seeds = options.max_seeds;
  serial_opts.sample_seed = options.sample_seed;
  serial_opts.threads = 1;
  PipelineOptions parallel_opts = serial_opts;
  parallel_opts.threads = options.threads;  // 0 = auto
  const std::size_t n_threads = resolve_thread_count(options.threads);

  // --- Part 1: functional pass, serial vs pool (paired per repeat) ------
  check_identical(FastzStudy(data.a, data.b, params, serial_opts),
                  FastzStudy(data.a, data.b, params, parallel_opts));

  // Arms: 0 = serial, 1 = pool; one item, so the order alternates by repeat.
  const auto pass_sums = paired_sums<2>(
      repeats, 1,
      {[&](std::size_t) { FastzStudy(data.a, data.b, params, serial_opts); },
       [&](std::size_t) { FastzStudy(data.a, data.b, params, parallel_opts); }});
  const double serial_min = min_sum(pass_sums, 0);
  const double parallel_min = min_sum(pass_sums, 1);
  const double pass_speedup = median_ratio(pass_sums, 0, 1);

  std::cout << "=== Functional pass (" << spec.label << ", " << data.a.size() << " x "
            << data.b.size() << " bp) ===\n";
  TextTable pass({"Variant", "Threads", "Min wallclock (ms)", "Speedup"});
  pass.add_row({"serial", "1", TextTable::num(serial_min * 1e3, 1), "1.00"});
  pass.add_row({"pool", std::to_string(n_threads), TextTable::num(parallel_min * 1e3, 1),
                TextTable::num(pass_speedup, 2)});
  pass.render(std::cout, false);
  std::cout << "(speedup: median over repeats of the paired serial/pool ratio)\n";

  // --- Part 2: y-drop row core, scalar vs SIMD (paired per side) ---------
  // The inspector's own side searches of this pair: the seed hits the pass
  // finds (same index, cap and sample seed), each extended left and right
  // with inspect_side's options — conservative pruning, score only, row
  // bounds on. Each side must match forced scalar (best cell, cells, row
  // bounds, and the traced ops of the same search) before anything is
  // timed.
  const simd::Isa simd_isa = simd::active_isa();
  const SpacedSeed seed = SpacedSeed::lastz_default();
  const std::vector<SeedHit> hits =
      SeedIndex(data.a, seed, serial_opts.index_step)
          .find_hits(data.b, serial_opts.max_seeds, serial_opts.sample_seed,
                     serial_opts.seed_transitions);
  std::vector<std::pair<SeqView, SeqView>> sides;
  for (const SeedHit& hit : hits) {
    const std::size_t anchor_a = hit.a_pos + seed.span() / 2;
    const std::size_t anchor_b = hit.b_pos + seed.span() / 2;
    sides.emplace_back(reverse_view(data.a.codes(), anchor_a),
                       reverse_view(data.b.codes(), anchor_b));
    sides.emplace_back(forward_view(data.a.codes(), anchor_a, data.a.size()),
                       forward_view(data.b.codes(), anchor_b, data.b.size()));
  }
  OneSidedOptions search = serial_opts.one_sided;
  search.prune = PruneMode::kConservative;
  search.want_traceback = false;
  search.record_row_bounds = true;
  OneSidedOptions traced = search;
  traced.want_traceback = true;

  std::uint64_t side_cells = 0;
  for (std::size_t k = 0; k < sides.size(); ++k) {
    const auto& [va, vb] = sides[k];
    for (const OneSidedOptions& opts : {search, traced}) {
      OneSidedResult want;
      {
        simd::ScopedIsa force(simd::Isa::kScalar);
        want = ydrop_one_sided_align(va, vb, params, opts);
      }
      simd::ScopedIsa force(simd_isa);
      check_same_search(want, ydrop_one_sided_align(va, vb, params, opts),
                        simd::isa_name(simd_isa), k);
      if (!opts.want_traceback) side_cells += want.cells;
    }
  }

  // Arms: 0 = forced scalar, 1 = the active ISA.
  const auto run_side = [&](simd::Isa isa, std::size_t k) {
    simd::ScopedIsa force(isa);
    (void)ydrop_one_sided_align(sides[k].first, sides[k].second, params, search);
  };
  const auto row_sums = paired_sums<2>(
      repeats, sides.size(),
      {[&](std::size_t k) { run_side(simd::Isa::kScalar, k); },
       [&](std::size_t k) { run_side(simd_isa, k); }});
  const double scalar_min = min_sum(row_sums, 0);
  const double simd_min = min_sum(row_sums, 1);
  const double simd_speedup = median_ratio(row_sums, 0, 1);

  std::cout << "\n=== Y-drop row core, scalar vs SIMD (" << sides.size()
            << " inspector sides, " << side_cells << " cells/sweep, "
            << simd::isa_report() << ") ===\n";
  TextTable ab({"Variant", "Min wallclock (ms)", "GCUPS", "Speedup vs scalar"});
  auto ab_row = [&](const std::string& name, double t, double speedup) {
    ab.add_row({name, TextTable::num(t * 1e3, 2),
                TextTable::num(static_cast<double>(side_cells) / t * 1e-9, 3),
                TextTable::num(speedup, 2)});
  };
  ab_row("scalar", scalar_min, 1.0);
  ab_row(simd::isa_name(simd_isa), simd_min, simd_speedup);
  ab.render(std::cout, false);
  std::cout << "(speedup: median over repeats of the per-side paired sums)\n";

  if (!json_path.empty()) {
    telemetry::BenchReport report("functional_pass");
    report.set_repeats(repeats);
    add_harness_config(report, options);
    report.add_config("row_core_sides", std::to_string(sides.size()));
    report.add_metric("pass.serial_min_s", serial_min);
    report.add_metric("pass.pool_min_s", parallel_min);
    report.add_metric("pass.speedup", pass_speedup);
    report.add_metric("kernel.scalar_min_s", scalar_min);
    report.add_metric("kernel.simd_min_s", simd_min);
    report.add_metric("kernel.simd_speedup", simd_speedup);
    if (report.write_file(json_path)) {
      std::cout << "\nwrote " << json_path << "\n";
    } else {
      std::cerr << "\nfailed to write " << json_path << "\n";
    }
  }
  return 0;
}
