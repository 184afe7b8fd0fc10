// Microbenchmark for the host-side functional pass, in three parts:
//
//   1. The parallel functional pass: FastzStudy's per-seed inspect/execute
//      loop on a thread pool vs the serial path, A/B-interleaved with
//      min-of-repeats so OS noise cancels. The two studies are verified to
//      produce identical alignments before any time is reported.
//   2. The strip kernel's SoA sweep (instrumented and branch-light
//      variants) vs the retained AoS reference, on chromosome windows
//      spanning multiple 32-lane strips.
//   3. The y-drop row core, scalar vs the active SIMD ISA, over the
//      inspector's own side searches of the pair. Every side is first
//      checked against forced scalar (exit nonzero on any divergence).
//
// Parts 2 and 3 time their arms paired per item (window or side) with a
// rotating arm order, so host speed drift between arms cancels inside each
// group; each speedup is the median over repeats of the summed-time ratio.
//
// On a single-core host the functional-pass speedup degenerates to ~1x (or
// slightly below — pool overhead); the interesting single-core number is
// the serial-path regression, which must stay within noise of the
// pre-refactor loop.
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
#include "fastz/strip_kernel.hpp"
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

// Minimum wallclock of `repeats` calls to `fn`.
template <typename Fn>
double min_time_s(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer timer;
    fn();
    const double t = timer.elapsed_s();
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

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
      "construction, AoS-reference vs SoA strip-kernel sweeps, and the y-drop "
      "row core's scalar vs SIMD inspector searches.");
  add_harness_flags(cli);
  cli.add_flag("repeats", "A/B-interleaved measurement repeats (minimum 3)", "5");
  cli.add_flag("kernel-window", "strip-kernel rectangle side (bp)", "512");
  cli.add_flag("kernel-windows", "number of chromosome windows per kernel sweep", "16");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_functional_pass.json");
  if (!cli.parse(argc, argv)) return 0;
  const int repeats = static_cast<int>(std::max<std::int64_t>(3, cli.get_int("repeats")));
  const std::size_t window =
      static_cast<std::size_t>(std::max<std::int64_t>(32, cli.get_int("kernel-window")));
  const std::size_t windows =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("kernel-windows")));
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

  // --- Part 1: functional pass, serial vs pool, interleaved ---------------
  check_identical(FastzStudy(data.a, data.b, params, serial_opts),
                  FastzStudy(data.a, data.b, params, parallel_opts));

  double serial_min = 0.0;
  double parallel_min = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const double s = min_time_s(1, [&] { FastzStudy(data.a, data.b, params, serial_opts); });
    const double p =
        min_time_s(1, [&] { FastzStudy(data.a, data.b, params, parallel_opts); });
    if (rep == 0 || s < serial_min) serial_min = s;
    if (rep == 0 || p < parallel_min) parallel_min = p;
  }

  std::cout << "=== Functional pass (" << spec.label << ", " << data.a.size() << " x "
            << data.b.size() << " bp) ===\n";
  TextTable pass({"Variant", "Threads", "Min wallclock (ms)", "Speedup"});
  pass.add_row({"serial", "1", TextTable::num(serial_min * 1e3, 1), "1.00"});
  pass.add_row({"pool", std::to_string(n_threads), TextTable::num(parallel_min * 1e3, 1),
                TextTable::num(serial_min / parallel_min, 2)});
  pass.render(std::cout, false);

  // --- Part 2: strip kernel, AoS reference vs SoA sweeps ------------------
  // Windows sliced from the generated chromosomes; every shape spans
  // multiple strips so the boundary-spill path is on the clock.
  std::vector<std::pair<SeqView, SeqView>> views;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t a_off = (w * 7919) % (data.a.size() - window);
    const std::size_t b_off = (w * 104729) % (data.b.size() - window);
    views.emplace_back(SeqView(data.a.codes().data() + a_off, 1, window),
                       SeqView(data.b.codes().data() + b_off, 1, window));
  }

  StripKernelOptions instrumented;  // census on, no traceback
  StripKernelOptions fast;          // branch-light score-only path
  fast.divergence_census = false;

  std::uint64_t aos_cells = 0;
  std::uint64_t soa_cells = 0;
  for (const auto& [va, vb] : views) {
    aos_cells += strip_rectangle_dp_reference(va, vb, params, false).cells;
    soa_cells += strip_rectangle_dp(va, vb, params, instrumented).cells;
  }
  if (aos_cells != soa_cells) {
    throw std::runtime_error("SoA kernel cell count diverged from AoS reference");
  }
  // Arms: 0 = AoS reference, 1 = SoA with census, 2 = SoA branch-light.
  const auto kernel_sums = paired_sums<3>(
      repeats, views.size(),
      {[&](std::size_t w) {
         (void)strip_rectangle_dp_reference(views[w].first, views[w].second, params, false);
       },
       [&](std::size_t w) {
         (void)strip_rectangle_dp(views[w].first, views[w].second, params, instrumented);
       },
       [&](std::size_t w) {
         (void)strip_rectangle_dp(views[w].first, views[w].second, params, fast);
       }});
  const double aos_min = min_sum(kernel_sums, 0);
  const double soa_min = min_sum(kernel_sums, 1);
  const double soa_fast_min = min_sum(kernel_sums, 2);
  const double soa_speedup = median_ratio(kernel_sums, 0, 1);
  const double soa_fast_speedup = median_ratio(kernel_sums, 0, 2);

  std::cout << "\n=== Strip kernel (" << windows << " windows of " << window << " x "
            << window << " bp, " << aos_cells << " cells/sweep) ===\n";
  TextTable kernel({"Variant", "Min wallclock (ms)", "GCUPS", "Speedup vs AoS"});
  auto kernel_row = [&](const char* name, double t, double speedup) {
    kernel.add_row({name, TextTable::num(t * 1e3, 2),
                    TextTable::num(static_cast<double>(aos_cells) / t * 1e-9, 3),
                    TextTable::num(speedup, 2)});
  };
  kernel_row("aos_reference (census)", aos_min, 1.0);
  kernel_row("soa (census)", soa_min, soa_speedup);
  kernel_row("soa fast (no census)", soa_fast_min, soa_fast_speedup);
  kernel.render(std::cout, false);
  std::cout << "(speedups: median over repeats of the per-window paired sums)\n";

  // --- Part 3: y-drop row core, scalar vs SIMD (paired per side) ---------
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
    report.add_config("kernel_window", std::to_string(window));
    report.add_config("kernel_windows", std::to_string(windows));
    report.add_config("row_core_sides", std::to_string(sides.size()));
    report.add_metric("pass.serial_min_s", serial_min);
    report.add_metric("pass.pool_min_s", parallel_min);
    report.add_metric("pass.speedup", serial_min / parallel_min);
    report.add_metric("kernel.aos_min_s", aos_min);
    report.add_metric("kernel.soa_min_s", soa_min);
    report.add_metric("kernel.soa_fast_min_s", soa_fast_min);
    report.add_metric("kernel.soa_speedup", soa_speedup);
    report.add_metric("kernel.soa_fast_speedup", soa_fast_speedup);
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
