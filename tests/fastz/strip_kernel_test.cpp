#include "fastz/strip_kernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

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

TEST(StripKernelSoA, ScoreOnlyVariantSkipsTraceAllocation) {
  auto [a, b] = related_pair(100, 0.8, 55);
  const ScoreParams p = test_params();
  const SeqView va(a.codes().data(), 1, a.size());
  const SeqView vb(b.codes().data(), 1, b.size());
  const auto r = strip_rectangle_dp(va, vb, p, false);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.ops.empty());
  const auto ref = reference_extend(a.codes(), b.codes(), p);
  EXPECT_EQ(r.best.score, ref.best.score);
  EXPECT_EQ(r.best.i, ref.best.i);
  EXPECT_EQ(r.best.j, ref.best.j);
}

TEST(StripKernel, ReverseViewsWork) {
  // Left extensions run over reversed views.
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
