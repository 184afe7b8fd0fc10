#include "testing/differ.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "align/gotoh_reference.hpp"
#include "align/ydrop_align.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "fastz/strip_kernel.hpp"
#include "multicore/multicore_lastz.hpp"
#include "service/server.hpp"
#include "util/simd.hpp"

namespace fastz::testing {

namespace {

// Every message carries the replay command so no failure is ever reported
// without its repro (the harness's no-silent-nondeterminism rule).
std::string tag(const FuzzCase& c, const std::string& what) {
  std::ostringstream os;
  os << "[" << case_kind_name(c.kind) << " seed=" << c.seed << "] " << what
     << " | repro: " << replay_command(c);
  return os.str();
}

std::string cell_str(const BestCell& cell) {
  std::ostringstream os;
  os << "score=" << cell.score << " @(" << cell.i << "," << cell.j << ")";
  return os.str();
}

std::string cigar_of(const std::vector<AlignOp>& ops) {
  Alignment aln;
  aln.ops = ops;
  return aln.cigar();
}

ScoreParams subject_params(const FuzzCase& c, InjectedBug bug) {
  ScoreParams p = c.params;
  if (bug == InjectedBug::kGapExtend) p.gap_extend += 1;
  return p;
}

// Applies the output-tampering bugs to a one-sided result.
void tamper(OneSidedResult& r, InjectedBug bug) {
  if (bug == InjectedBug::kDropOp && !r.ops.empty()) r.ops.pop_back();
  if (bug == InjectedBug::kScoreOffByOne) r.best.score += 1;
}

void tamper(std::vector<Alignment>& alignments, InjectedBug bug) {
  if (alignments.empty()) return;
  if (bug == InjectedBug::kDropOp && !alignments.front().ops.empty()) {
    alignments.front().ops.pop_back();
  }
  if (bug == InjectedBug::kScoreOffByOne) alignments.front().score += 1;
}

// Rescores `ops` as a (0,0)-anchored extension ending at (i, j); any walk
// inconsistency is itself a divergence.
void check_rescore(DiffResult& out, const FuzzCase& c, const char* who,
                   const std::vector<AlignOp>& ops, std::uint32_t i, std::uint32_t j,
                   Score claimed) {
  Alignment aln;
  aln.a_end = i;
  aln.b_end = j;
  aln.ops = ops;
  try {
    const Score rescored = rescore_alignment(aln, c.a, c.b, c.params);
    out.expect(rescored == claimed,
               tag(c, std::string(who) + ": traceback rescores to " +
                          std::to_string(rescored) + ", claimed " +
                          std::to_string(claimed) + " (cigar " + cigar_of(ops) + ")"));
  } catch (const std::invalid_argument& e) {
    out.expect(false, tag(c, std::string(who) + ": traceback walk invalid: " + e.what()));
  }
}

// ---- Exact-oracle kinds: everything must equal the full-matrix reference.
void diff_one_sided_exact(DiffResult& out, const FuzzCase& c, InjectedBug bug) {
  const ReferenceResult ref = reference_extend(c.a.codes(), c.b.codes(), c.params);
  const ScoreParams subj = subject_params(c, bug);

  OneSidedResult seq = ydrop_one_sided_align(c.a.codes(), c.b.codes(), subj);
  tamper(seq, bug);
  out.expect(seq.best.score == ref.best.score && seq.best.i == ref.best.i &&
                 seq.best.j == ref.best.j,
             tag(c, "sequential y-drop best " + cell_str(seq.best) +
                        " != reference " + cell_str(ref.best)));
  out.expect(seq.ops == ref.ops,
             tag(c, "sequential y-drop cigar " + cigar_of(seq.ops) +
                        " != reference " + cigar_of(ref.ops)));
  check_rescore(out, c, "sequential y-drop", seq.ops, seq.best.i, seq.best.j,
                seq.best.score);

  OneSidedOptions cons_opts;
  cons_opts.prune = PruneMode::kConservative;
  const OneSidedResult cons =
      ydrop_one_sided_align(c.a.codes(), c.b.codes(), subj, cons_opts);
  out.expect(cons.best.score == ref.best.score && cons.best.i == ref.best.i &&
                 cons.best.j == ref.best.j,
             tag(c, "conservative y-drop best " + cell_str(cons.best) +
                        " != reference " + cell_str(ref.best)));
  out.expect(cons.ops == ref.ops,
             tag(c, "conservative y-drop cigar " + cigar_of(cons.ops) +
                        " != reference " + cigar_of(ref.ops)));

  // Linear-space (Hirschberg) traceback, forced with a tiny block height so
  // even 100 bp cases bisect several times. Subject of the split canary; an
  // exception is itself a divergence (the linear path must never throw on
  // valid inputs).
  OneSidedOptions lin_opts;
  lin_opts.hirschberg_block_rows = 4;
  if (bug == InjectedBug::kHirschbergSplit) lin_opts.hirschberg_split_skew = 1;
  try {
    OneSidedResult lin =
        ydrop_linear_traceback(c.a.codes(), c.b.codes(), subj, lin_opts);
    tamper(lin, bug);
    out.expect(lin.best.score == ref.best.score && lin.best.i == ref.best.i &&
                   lin.best.j == ref.best.j,
               tag(c, "hirschberg y-drop best " + cell_str(lin.best) +
                          " != reference " + cell_str(ref.best)));
    out.expect(lin.ops == ref.ops,
               tag(c, "hirschberg y-drop cigar " + cigar_of(lin.ops) +
                          " != reference " + cigar_of(ref.ops)));
  } catch (const std::exception& e) {
    out.expect(false, tag(c, std::string("hirschberg y-drop threw: ") + e.what()));
  }

  if (c.a.size() <= kStripKernelMaxDim && c.b.size() <= kStripKernelMaxDim) {
    const StripKernelResult strip =
        strip_rectangle_dp(SeqView(c.a.codes().data(), 1, c.a.size()),
                           SeqView(c.b.codes().data(), 1, c.b.size()), subj,
                           /*want_traceback=*/true);
    out.expect(strip.best.score == ref.best.score && strip.best.i == ref.best.i &&
                   strip.best.j == ref.best.j,
               tag(c, "strip kernel best " + cell_str(strip.best) + " != reference " +
                          cell_str(ref.best)));
    out.expect(strip.ops == ref.ops,
               tag(c, "strip kernel cigar " + cigar_of(strip.ops) + " != reference " +
                          cigar_of(ref.ops)));
  }
}

// ---- SIMD-vs-scalar: every vector ISA available on this host must
// reproduce the forced-scalar y-drop sweep (the row core whose phase A is
// the repository's one vectorized DP path) field-for-field — best cell,
// cell count, and the walked ops. Two walks per sweep: from the best cell,
// and from the far corner (m, n), which the unbounded y-drop of these kinds
// always explores; the corner walk crosses the whole rectangle, so it reads
// far more of the trace codes phase A feeds. kSimdLaneGapOpen perturbs one
// vector lane of the row precompute's gap-open constant; the comparison
// MUST catch it whenever a vector ISA runs.
void diff_simd_vs_scalar(DiffResult& out, const FuzzCase& c, InjectedBug bug) {
  OneSidedOptions corner;
  corner.trace_from_fixed = true;
  corner.trace_i = static_cast<std::uint32_t>(c.a.size());
  corner.trace_j = static_cast<std::uint32_t>(c.b.size());

  OneSidedResult scalar;
  OneSidedResult scalar_corner;
  {
    simd::ScopedIsa force(simd::Isa::kScalar);
    scalar = ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params);
    scalar_corner = ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, corner);
  }

  OneSidedOptions opts;
  if (bug == InjectedBug::kSimdLaneGapOpen) {
    opts.simd_lane_skew = 1;
    corner.simd_lane_skew = 1;
  }
  for (const simd::Isa isa : simd::available_isas()) {
    if (isa == simd::Isa::kScalar) continue;
    simd::ScopedIsa force(isa);
    const std::string who = std::string("[") + simd::isa_name(isa) + "] ";

    const OneSidedResult ydrop =
        ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, opts);
    out.expect(ydrop.best.score == scalar.best.score && ydrop.best.i == scalar.best.i &&
                   ydrop.best.j == scalar.best.j,
               tag(c, who + "y-drop best " + cell_str(ydrop.best) + " != scalar " +
                          cell_str(scalar.best)));
    out.expect(ydrop.cells == scalar.cells,
               tag(c, who + "y-drop explored " + std::to_string(ydrop.cells) +
                          " cells != scalar " + std::to_string(scalar.cells)));
    out.expect(ydrop.ops == scalar.ops,
               tag(c, who + "y-drop cigar " + cigar_of(ydrop.ops) + " != scalar " +
                          cigar_of(scalar.ops)));

    const OneSidedResult from_corner =
        ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, corner);
    out.expect(from_corner.ops == scalar_corner.ops,
               tag(c, who + "y-drop corner walk " + cigar_of(from_corner.ops) +
                          " != scalar " + cigar_of(scalar_corner.ops)));
  }
}

// ---- Bin-boundary kind: pruned search, no quadratic reference. The
// invariants are the paper's: conservative >= sequential, and the trimmed
// executor re-run reproduces the inspector's optimum exactly.
void diff_pruned(DiffResult& out, const FuzzCase& c, InjectedBug bug) {
  const ScoreParams subj = subject_params(c, bug);

  OneSidedResult seq = ydrop_one_sided_align(c.a.codes(), c.b.codes(), subj);
  tamper(seq, bug);
  check_rescore(out, c, "sequential y-drop", seq.ops, seq.best.i, seq.best.j,
                seq.best.score);

  OneSidedOptions cons_opts;
  cons_opts.prune = PruneMode::kConservative;
  cons_opts.want_traceback = false;
  const OneSidedResult cons =
      ydrop_one_sided_align(c.a.codes(), c.b.codes(), subj, cons_opts);
  out.expect(cons.best.score >= seq.best.score,
             tag(c, "conservative best " + cell_str(cons.best) +
                        " below sequential " + cell_str(seq.best)));
  out.expect(cons.cells >= seq.cells,
             tag(c, "conservative explored " + std::to_string(cons.cells) +
                        " cells < sequential " + std::to_string(seq.cells)));

  // Trimmed-executor consistency (inspector optimum -> executor rectangle).
  if (cons.best.i != 0 || cons.best.j != 0) {
    OneSidedOptions trim;
    trim.prune = PruneMode::kConservative;
    trim.max_rows = cons.best.i;
    trim.max_cols = cons.best.j;
    trim.trace_from_fixed = true;
    trim.trace_i = cons.best.i;
    trim.trace_j = cons.best.j;
    const OneSidedResult trimmed =
        ydrop_one_sided_align(c.a.codes(), c.b.codes(), subj, trim);
    out.expect(trimmed.best.score == cons.best.score && trimmed.best.i == cons.best.i &&
                   trimmed.best.j == cons.best.j,
               tag(c, "trimmed executor best " + cell_str(trimmed.best) +
                          " != inspector optimum " + cell_str(cons.best)));
    out.expect(trimmed.cells <= cons.cells,
               tag(c, "trimmed executor explored " + std::to_string(trimmed.cells) +
                          " cells > inspector search " + std::to_string(cons.cells)));
    if (bug == InjectedBug::kNone) {
      check_rescore(out, c, "trimmed executor", trimmed.ops, cons.best.i, cons.best.j,
                    cons.best.score);
    }
  }
}

// ---- Long-tail kinds: the Hirschberg executor path vs the full-traceback
// executor. The quadratic reference is unaffordable at 33-49 kbp; the dense
// trimmed-rectangle re-run is the oracle, and the comparison is exact —
// best cell, cells, and the complete op list. The linear path is the
// subject of every injected bug.
void diff_hirschberg(DiffResult& out, const FuzzCase& c, InjectedBug bug) {
  const ScoreParams subj = subject_params(c, bug);

  // Inspector pass: conservative search, no traceback.
  OneSidedOptions search;
  search.prune = PruneMode::kConservative;
  search.want_traceback = false;
  const OneSidedResult found =
      ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, search);
  out.expect(!found.truncated,
             tag(c, "long-tail search hit a safety cap (case generator bug)"));
  if (found.best.i == 0 && found.best.j == 0) return;

  // Executor rectangle, trimmed to the inspector's optimum: the dense
  // full-trace re-run vs the linear-space Hirschberg path must be
  // bit-identical — and the linear path must stay inside its O(n+m)
  // traceback bound while doing it.
  OneSidedOptions trim;
  trim.prune = PruneMode::kConservative;
  trim.max_rows = found.best.i;
  trim.max_cols = found.best.j;
  trim.trace_from_fixed = true;
  trim.trace_i = found.best.i;
  trim.trace_j = found.best.j;
  const OneSidedResult full =
      ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, trim);

  OneSidedOptions lin = trim;
  if (bug == InjectedBug::kHirschbergSplit) lin.hirschberg_split_skew = 1;
  LinearTracebackStats stats;
  try {
    OneSidedResult linear =
        ydrop_linear_traceback(c.a.codes(), c.b.codes(), subj, lin, &stats);
    tamper(linear, bug);
    out.expect(linear.best.score == full.best.score && linear.best.i == full.best.i &&
                   linear.best.j == full.best.j,
               tag(c, "hirschberg executor best " + cell_str(linear.best) +
                          " != full-traceback executor " + cell_str(full.best)));
    out.expect(linear.ops == full.ops,
               tag(c, "hirschberg executor cigar " + cigar_of(linear.ops) +
                          " != full-traceback " + cigar_of(full.ops)));
    out.expect(linear.cells == full.cells,
               tag(c, "hirschberg plan explored " + std::to_string(linear.cells) +
                          " cells != full-traceback " + std::to_string(full.cells)));
    // One base block of codes: block_rows + 1 rows, each at most the trimmed
    // rectangle's column extent wide (computed-then-pruned edge cells can
    // pad a row beyond its viable span, so the viable max_row_width is NOT a
    // per-row byte cap). Same bound the pipeline's check_linear_traceback
    // enforces: O(n + m) with block_rows a constant.
    const std::uint64_t bound = std::uint64_t{stats.block_rows + 1} *
                                (std::uint64_t{found.best.j} + 2);
    out.expect(stats.peak_trace_bytes <= bound,
               tag(c, "hirschberg materialized " +
                          std::to_string(stats.peak_trace_bytes) +
                          " traceback bytes > O(n+m) bound " + std::to_string(bound)));
    check_rescore(out, c, "hirschberg executor", linear.ops, linear.best.i,
                  linear.best.j, linear.best.score);
  } catch (const std::exception& e) {
    out.expect(false, tag(c, std::string("hirschberg executor threw: ") + e.what()));
  }
}

std::string aln_str(const Alignment& aln) {
  std::ostringstream os;
  os << "[" << aln.a_begin << "," << aln.a_end << ")x[" << aln.b_begin << ","
     << aln.b_end << ") score=" << aln.score << " cigar=" << aln.cigar();
  return os.str();
}

bool same_alignment(const Alignment& x, const Alignment& y) {
  return x.a_begin == y.a_begin && x.a_end == y.a_end && x.b_begin == y.b_begin &&
         x.b_end == y.b_end && x.score == y.score && x.ops == y.ops;
}

// True if `f` covers `l`: same or larger extent with at least its score —
// the paper's FastZ-vs-LASTZ correctness criterion (Sections 3.4, 5).
bool covers(const Alignment& f, const Alignment& l) {
  return f.a_begin <= l.a_begin && f.a_end >= l.a_end && f.b_begin <= l.b_begin &&
         f.b_end >= l.b_end && f.score >= l.score;
}

void compare_exact_lists(DiffResult& out, const FuzzCase& c, const char* who,
                         const std::vector<Alignment>& expected,
                         const std::vector<Alignment>& got) {
  out.expect(expected.size() == got.size(),
             tag(c, std::string(who) + " reported " + std::to_string(got.size()) +
                        " alignments, sequential LASTZ " +
                        std::to_string(expected.size())));
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t k = 0; k < n; ++k) {
    out.expect(same_alignment(expected[k], got[k]),
               tag(c, std::string(who) + " alignment " + std::to_string(k) + " " +
                          aln_str(got[k]) + " != LASTZ " + aln_str(expected[k])));
  }
}

// ---- Pipeline kinds: sequential LASTZ vs multicore vs FastZ. -------------
void diff_pipelines(DiffResult& out, const FuzzCase& c, InjectedBug bug, bool exact) {
  const PipelineResult lastz = run_lastz(c.a, c.b, c.params, c.pipeline);

  // Multicore must be bit-identical to sequential LASTZ regardless of
  // schedule. The subject of injected bugs on the non-exact kind.
  MulticoreOptions mc_opts;
  mc_opts.threads = 3;
  mc_opts.dynamic_schedule = (c.seed % 2) == 1;
  const ScoreParams mc_params = exact ? c.params : subject_params(c, bug);
  MulticoreResult mc = run_multicore_lastz(c.a, c.b, mc_params, c.pipeline, mc_opts);
  if (!exact) tamper(mc.alignments, bug);
  compare_exact_lists(out, c, "multicore", lastz.alignments, mc.alignments);
  if (bug == InjectedBug::kNone) {
    out.expect(mc.counters.dp_cells == lastz.counters.dp_cells,
               tag(c, "multicore dp_cells " + std::to_string(mc.counters.dp_cells) +
                          " != LASTZ " + std::to_string(lastz.counters.dp_cells)));
  }

  // FastZ: the subject of injected bugs on the exact kind.
  const ScoreParams fz_params = exact ? subject_params(c, bug) : c.params;
  const FastzStudy study(c.a, c.b, fz_params, c.pipeline);
  std::vector<Alignment> fastz = study.alignments();
  if (exact) tamper(fastz, bug);

  if (exact) {
    // Unbounded y-drop: conservative == sequential search, so the FastZ
    // pipeline must reproduce LASTZ's alignment list verbatim.
    compare_exact_lists(out, c, "fastz", lastz.alignments, fastz);
  } else {
    for (const Alignment& l : lastz.alignments) {
      const bool matched = std::any_of(fastz.begin(), fastz.end(),
                                       [&](const Alignment& f) { return covers(f, l); });
      out.expect(matched, tag(c, "LASTZ alignment " + aln_str(l) +
                                     " not covered by any FastZ alignment"));
    }
    out.expect(fastz.size() + 1 >= lastz.alignments.size() &&
                   fastz.size() <= lastz.alignments.size() + 2 +
                                       lastz.alignments.size() / 4,
               tag(c, "FastZ reported " + std::to_string(fastz.size()) +
                          " alignments vs LASTZ " +
                          std::to_string(lastz.alignments.size()) +
                          " — outside the conservative-superset envelope"));
    out.expect(study.inspector_cells() >= lastz.counters.dp_cells,
               tag(c, "inspector explored " + std::to_string(study.inspector_cells()) +
                          " cells < sequential " +
                          std::to_string(lastz.counters.dp_cells)));
  }

  if (bug == InjectedBug::kNone) {
    for (const Alignment& aln : fastz) {
      try {
        const Score rescored = rescore_alignment(aln, c.a, c.b, c.params);
        out.expect(rescored == aln.score,
                   tag(c, "FastZ alignment " + aln_str(aln) + " rescores to " +
                              std::to_string(rescored)));
      } catch (const std::invalid_argument& e) {
        out.expect(false, tag(c, "FastZ alignment " + aln_str(aln) +
                                     " has an invalid ops walk: " + e.what()));
      }
    }
  }
}

// ---- Service kind: the same pair replayed through the batching server.
// Three duplicate submissions stage as ONE micro-batch (the later two must
// coalesce onto the first), then a repeat request must hit the result
// cache. Every reply — batched, coalesced, or cached — must be
// bit-identical to the direct FastzStudy: the service may never trade
// correctness for throughput.
void diff_service(DiffResult& out, const FuzzCase& c, InjectedBug bug) {
  const FastzStudy direct(c.a, c.b, c.params, c.pipeline);

  service::ServerConfig config;
  config.options = c.pipeline;
  config.shards = 1;
  config.batch_max = 4;
  config.queue_limit = 8;
  service::AlignmentServer server(config, /*start_paused=*/true);
  const ScoreParams subj = subject_params(c, bug);
  auto submit = [&] {
    service::AlignRequest req;
    req.a = c.a;
    req.b = c.b;
    req.params = subj;
    return server.submit(std::move(req));
  };
  std::vector<std::future<service::AlignResult>> futures;
  for (int k = 0; k < 3; ++k) futures.push_back(submit());
  server.resume();
  std::vector<service::AlignResult> results;
  for (auto& f : futures) results.push_back(f.get());
  results.push_back(submit().get());  // drained server: must hit the cache

  out.expect(results[1].coalesced && results[2].coalesced,
             tag(c, "duplicate in-batch service requests were not coalesced"));
  out.expect(results[3].cache_hit,
             tag(c, "repeat service request missed the result cache"));
  const service::ServerStats stats = server.stats();
  out.expect(stats.batches == 2,
             tag(c, "service dispatched " + std::to_string(stats.batches) +
                        " batches, expected 2 (staged trio + cached repeat)"));
  out.expect(stats.pipeline_items == 1,
             tag(c, "service ran " + std::to_string(stats.pipeline_items) +
                        " pipeline items, expected 1 (coalesce + cache)"));
  out.expect(results[0].outcome.seeds == direct.seeds() &&
                 results[0].outcome.inspector_cells == direct.inspector_cells(),
             tag(c, "service census (seeds " + std::to_string(results[0].outcome.seeds) +
                        ", cells " + std::to_string(results[0].outcome.inspector_cells) +
                        ") != direct study (" + std::to_string(direct.seeds()) + ", " +
                        std::to_string(direct.inspector_cells()) + ")"));

  for (std::size_t r = 0; r < results.size(); ++r) {
    std::vector<Alignment> got = results[r].outcome.alignments;
    if (r == 0) tamper(got, bug);  // the output-tampering bugs hit reply 0
    const std::string who = "service reply " + std::to_string(r);
    out.expect(got.size() == direct.alignments().size(),
               tag(c, who + " returned " + std::to_string(got.size()) +
                          " alignments, direct study " +
                          std::to_string(direct.alignments().size())));
    const std::size_t n = std::min(got.size(), direct.alignments().size());
    for (std::size_t k = 0; k < n; ++k) {
      out.expect(same_alignment(got[k], direct.alignments()[k]),
                 tag(c, who + " alignment " + std::to_string(k) + " " + aln_str(got[k]) +
                            " != direct " + aln_str(direct.alignments()[k])));
    }
  }
}

}  // namespace

const char* bug_name(InjectedBug bug) noexcept {
  switch (bug) {
    case InjectedBug::kNone: return "none";
    case InjectedBug::kGapExtend: return "gap-extend";
    case InjectedBug::kDropOp: return "drop-op";
    case InjectedBug::kScoreOffByOne: return "score-off-by-one";
    case InjectedBug::kHirschbergSplit: return "hirschberg-split-off-by-one";
    case InjectedBug::kSimdLaneGapOpen: return "simd-lane-gap-open";
  }
  return "unknown";
}

InjectedBug parse_bug(std::string_view name) {
  if (name == "none") return InjectedBug::kNone;
  if (name == "gap-extend") return InjectedBug::kGapExtend;
  if (name == "drop-op") return InjectedBug::kDropOp;
  if (name == "score-off-by-one") return InjectedBug::kScoreOffByOne;
  if (name == "hirschberg-split-off-by-one") return InjectedBug::kHirschbergSplit;
  if (name == "simd-lane-gap-open") return InjectedBug::kSimdLaneGapOpen;
  throw std::invalid_argument(
      "parse_bug: unknown bug '" + std::string(name) +
      "' (none|gap-extend|drop-op|score-off-by-one|hirschberg-split-off-by-one|"
      "simd-lane-gap-open)");
}

DiffResult diff_case(const FuzzCase& c, InjectedBug bug) {
  DiffResult out;
  switch (c.kind) {
    case CaseKind::kOneSidedRandom:
    case CaseKind::kOneSidedRelated:
    case CaseKind::kHomopolymer:
    case CaseKind::kLowComplexity:
      diff_one_sided_exact(out, c, bug);
      diff_simd_vs_scalar(out, c, bug);
      break;
    case CaseKind::kBinBoundary:
      diff_pruned(out, c, bug);
      break;
    case CaseKind::kDegenerate:
      // Degenerate inputs must survive both layers: the raw DP and the
      // full pipelines (empty seqs, sub-seed-span seqs, single bases).
      diff_one_sided_exact(out, c, bug);
      diff_pipelines(out, c, bug, /*exact=*/true);
      break;
    case CaseKind::kPipelineExact:
      diff_pipelines(out, c, bug, /*exact=*/true);
      break;
    case CaseKind::kPipeline:
      diff_pipelines(out, c, bug, /*exact=*/false);
      break;
    case CaseKind::kServicePipeline:
      diff_service(out, c, bug);
      break;
    case CaseKind::kLongRelated:
    case CaseKind::kLongStructuralIndel:
      diff_hirschberg(out, c, bug);
      break;
  }
  return out;
}

}  // namespace fastz::testing
