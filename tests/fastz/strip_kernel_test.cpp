#include "fastz/strip_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "align/gotoh_reference.hpp"
#include "testing/test_sequences.hpp"

namespace fastz {
namespace {

using testing::random_dna;
using testing::related_pair;

// The warp-strip cyclic-register kernel must agree cell-for-cell with the
// plain full-matrix reference: same best cell and same traceback path.
class StripVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StripVsReference, MatchesReferenceOnRelatedPairs) {
  const std::uint64_t seed = GetParam();
  auto [a, b] = related_pair(90, 0.8, seed);
  const ScoreParams p = test_params();

  const auto ref = reference_extend(a.codes(), b.codes(), p);
  const auto strip = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                        SeqView(b.codes().data(), 1, b.size()), p,
                                        /*want_traceback=*/true);

  EXPECT_EQ(strip.best.score, ref.best.score);
  EXPECT_EQ(strip.best.i, ref.best.i);
  EXPECT_EQ(strip.best.j, ref.best.j);
  EXPECT_EQ(strip.ops, ref.ops);
  EXPECT_EQ(strip.cells, std::uint64_t{a.size()} * b.size());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StripVsReference,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(StripKernel, MultiStripSizesCrossBoundaries) {
  // Sizes straddling the 32-lane strip boundary exercise the boundary-spill
  // path (lane 0 reading the previous strip's spilled column).
  for (std::size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 100u}) {
    auto [a, b] = related_pair(n, 0.85, 1000 + n);
    const ScoreParams p = test_params();
    const auto ref = reference_extend(a.codes(), b.codes(), p);
    const auto strip = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                          SeqView(b.codes().data(), 1, b.size()), p, true);
    EXPECT_EQ(strip.best.score, ref.best.score) << "n=" << n;
    EXPECT_EQ(strip.best.i, ref.best.i) << "n=" << n;
    EXPECT_EQ(strip.best.j, ref.best.j) << "n=" << n;
    EXPECT_EQ(strip.ops, ref.ops) << "n=" << n;
  }
}

TEST(StripKernel, HoxdParamsAgreeWithReference) {
  auto [a, b] = related_pair(120, 0.75, 9);
  const ScoreParams p = lastz_default_params();
  const auto ref = reference_extend(a.codes(), b.codes(), p);
  const auto strip = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                        SeqView(b.codes().data(), 1, b.size()), p, true);
  EXPECT_EQ(strip.best.score, ref.best.score);
  EXPECT_EQ(strip.ops, ref.ops);
}

TEST(StripKernel, SpillBytesCountInteriorBoundaries) {
  auto [a, b] = related_pair(64, 0.9, 4);
  // b is ~64 long: 2 strips -> exactly one interior boundary of (m+1) rows.
  const ScoreParams p = test_params();
  const auto r = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                    SeqView(b.codes().data(), 1, b.size()), p, false);
  const std::uint64_t strips = (b.size() + kWarpWidth - 1) / kWarpWidth;
  EXPECT_EQ(r.strips, strips);
  EXPECT_EQ(r.boundary_spill_bytes,
            (strips - 1) * (a.size() + 1) * 12u);
}

TEST(StripKernel, WarpStepsIncludePipelineFill) {
  auto [a, b] = related_pair(50, 0.9, 6);
  const ScoreParams p = test_params();
  const auto r = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                    SeqView(b.codes().data(), 1, b.size()), p, false);
  // Each strip runs (m + lanes + 1) steps; steps must exceed the ideal
  // cells/32 because of fill/drain.
  EXPECT_GT(r.warp_steps, r.cells / kWarpWidth);
}

TEST(StripKernel, EmptyInputs) {
  const ScoreParams p = test_params();
  const auto r = strip_rectangle_dp(SeqView(), SeqView(), p, true);
  EXPECT_EQ(r.best.score, 0);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.cells, 0u);
}

TEST(StripKernel, RejectsOversizeTracebackRectangles) {
  const Sequence a = random_dna(kStripKernelMaxDim + 1, 1);
  const Sequence b = random_dna(8, 2);
  EXPECT_THROW(strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                  SeqView(b.codes().data(), 1, b.size()),
                                  test_params(), true),
               std::invalid_argument);
}

TEST(StripKernel, DivergenceHistogramAccountsSteps) {
  auto [a, b] = related_pair(200, 0.8, 21);
  const ScoreParams p = lastz_default_params();
  const auto r = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                    SeqView(b.codes().data(), 1, b.size()), p, false);
  std::uint64_t counted = 0;
  for (auto v : r.divergence_histogram) counted += v;
  // Every counted step had >= 2 active lanes; there are at least
  // (rows - warp) such steps per strip and never more than warp_steps.
  EXPECT_GT(counted, 0u);
  EXPECT_LE(counted, r.warp_steps);
  const double mean = r.mean_divergent_paths();
  EXPECT_GE(mean, 1.0);
  EXPECT_LE(mean, 12.0);
}

TEST(StripKernel, IdenticalSequencesBarelyDiverge) {
  // A perfect self-alignment takes the diagonal path in (almost) every
  // lane: divergence collapses toward one or two paths per step.
  const Sequence a = testing::random_dna(300, 33);
  const ScoreParams p = lastz_default_params();
  const auto self = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                       SeqView(a.codes().data(), 1, a.size()), p, false);
  const Sequence b = testing::random_dna(300, 44);
  const auto unrelated = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                            SeqView(b.codes().data(), 1, b.size()), p,
                                            false);
  EXPECT_LT(self.mean_divergent_paths(), unrelated.mean_divergent_paths());
}

// ---- SoA fast path vs the original AoS formulation -------------------------
//
// strip_rectangle_dp is the SoA pointer-rotated rewrite;
// strip_rectangle_dp_reference is the original AoS loop kept as the oracle.
// The rewrite must be indistinguishable in every output the pipeline or the
// profiler consumes: best cell, traceback, cells, warp_steps,
// divergence_histogram, boundary_spill_bytes.

void expect_identical(const StripKernelResult& soa, const StripKernelResult& aos,
                      const std::string& label) {
  EXPECT_EQ(soa.best.score, aos.best.score) << label;
  EXPECT_EQ(soa.best.i, aos.best.i) << label;
  EXPECT_EQ(soa.best.j, aos.best.j) << label;
  EXPECT_EQ(soa.cells, aos.cells) << label;
  EXPECT_EQ(soa.warp_steps, aos.warp_steps) << label;
  EXPECT_EQ(soa.strips, aos.strips) << label;
  EXPECT_EQ(soa.boundary_spill_bytes, aos.boundary_spill_bytes) << label;
  EXPECT_EQ(soa.divergence_histogram, aos.divergence_histogram) << label;
  EXPECT_EQ(soa.trace, aos.trace) << label;
  EXPECT_EQ(soa.ops, aos.ops) << label;
}

TEST(StripKernelSoA, MatchesAosReferenceCellForCell) {
  for (std::uint64_t seed = 1; seed < 12; ++seed) {
    auto [a, b] = related_pair(200, 0.8, seed);
    // Mix of square, wide, tall, and strip-boundary shapes.
    const std::size_t rows = std::min<std::size_t>(a.size(), 20 + (seed * 37) % 150);
    const std::size_t cols = std::min<std::size_t>(b.size(), 20 + (seed * 53) % 150);
    const ScoreParams p = seed % 2 == 0 ? lastz_default_params() : test_params();
    const SeqView va(a.codes().data(), 1, rows);
    const SeqView vb(b.codes().data(), 1, cols);
    const bool trace = rows <= kStripKernelMaxDim && cols <= kStripKernelMaxDim;
    expect_identical(strip_rectangle_dp(va, vb, p, trace),
                     strip_rectangle_dp_reference(va, vb, p, trace),
                     "seed=" + std::to_string(seed));
  }
}

TEST(StripKernelSoA, MatchesAosReferenceOnBoundaryShapes) {
  const ScoreParams p = lastz_default_params();
  for (std::size_t n : {1u, 31u, 32u, 33u, 64u, 65u, 96u, 127u}) {
    auto [a, b] = related_pair(n, 0.85, 7000 + n);
    const SeqView va(a.codes().data(), 1, a.size());
    const SeqView vb(b.codes().data(), 1, b.size());
    expect_identical(strip_rectangle_dp(va, vb, p, true),
                     strip_rectangle_dp_reference(va, vb, p, true),
                     "n=" + std::to_string(n));
  }
}

TEST(StripKernelSoA, CensusOffVariantKeepsScoreOutputs) {
  // The branch-light instantiation (census compiled out) must change only
  // the histogram — never the DP outputs or geometry counters.
  auto [a, b] = related_pair(150, 0.8, 77);
  const ScoreParams p = lastz_default_params();
  const SeqView va(a.codes().data(), 1, a.size());
  const SeqView vb(b.codes().data(), 1, b.size());

  StripKernelOptions instrumented;
  instrumented.want_traceback = true;
  StripKernelOptions fast;
  fast.want_traceback = true;
  fast.divergence_census = false;

  const auto full = strip_rectangle_dp(va, vb, p, instrumented);
  const auto lean = strip_rectangle_dp(va, vb, p, fast);
  EXPECT_EQ(lean.best.score, full.best.score);
  EXPECT_EQ(lean.best.i, full.best.i);
  EXPECT_EQ(lean.best.j, full.best.j);
  EXPECT_EQ(lean.cells, full.cells);
  EXPECT_EQ(lean.warp_steps, full.warp_steps);
  EXPECT_EQ(lean.boundary_spill_bytes, full.boundary_spill_bytes);
  EXPECT_EQ(lean.trace, full.trace);
  EXPECT_EQ(lean.ops, full.ops);
  for (auto v : lean.divergence_histogram) EXPECT_EQ(v, 0u);
  EXPECT_GT(full.mean_divergent_paths(), 0.0);
}

TEST(StripKernelSoA, ScoreOnlyVariantSkipsTraceAllocation) {
  auto [a, b] = related_pair(100, 0.8, 55);
  const ScoreParams p = test_params();
  const SeqView va(a.codes().data(), 1, a.size());
  const SeqView vb(b.codes().data(), 1, b.size());
  StripKernelOptions score_only;
  score_only.divergence_census = false;
  const auto r = strip_rectangle_dp(va, vb, p, score_only);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.ops.empty());
  const auto ref = reference_extend(a.codes(), b.codes(), p);
  EXPECT_EQ(r.best.score, ref.best.score);
  EXPECT_EQ(r.best.i, ref.best.i);
  EXPECT_EQ(r.best.j, ref.best.j);
}

TEST(StripKernel, ReverseViewsWork) {
  // The executor runs the kernel over reversed views for left extensions.
  auto [a, b] = related_pair(70, 0.85, 12);
  const ScoreParams p = test_params();
  const auto codes_a = a.codes();
  const auto codes_b = b.codes();
  // Compare the strip kernel on reversed views against the reference on
  // materialized reversed copies.
  std::vector<BaseCode> ra(codes_a.rbegin(), codes_a.rend());
  std::vector<BaseCode> rb(codes_b.rbegin(), codes_b.rend());
  const auto ref = reference_extend(ra, rb, p);
  const auto strip = strip_rectangle_dp(reverse_view(codes_a, codes_a.size()),
                                        reverse_view(codes_b, codes_b.size()), p, true);
  EXPECT_EQ(strip.best.score, ref.best.score);
  EXPECT_EQ(strip.best.i, ref.best.i);
  EXPECT_EQ(strip.ops, ref.ops);
}

}  // namespace
}  // namespace fastz
