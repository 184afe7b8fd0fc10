// ISA selection (util/simd) and the row-precompute vector primitives.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/row_precompute.hpp"
#include "util/prng.hpp"

namespace fastz {
namespace {

TEST(SimdIsa, NamesRoundTrip) {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2,
                              simd::Isa::kAvx2, simd::Isa::kNeon}) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
  }
  EXPECT_EQ(simd::parse_isa("auto"), simd::detected_isa());
  EXPECT_THROW(simd::parse_isa("avx512"), std::invalid_argument);
  EXPECT_THROW(simd::parse_isa(""), std::invalid_argument);
}

TEST(SimdIsa, LaneCounts) {
  EXPECT_EQ(simd::isa_lanes(simd::Isa::kScalar), 1u);
  EXPECT_EQ(simd::isa_lanes(simd::Isa::kSse2), 4u);
  EXPECT_EQ(simd::isa_lanes(simd::Isa::kAvx2), 8u);
  EXPECT_EQ(simd::isa_lanes(simd::Isa::kNeon), 4u);
}

TEST(SimdIsa, ScalarAlwaysAvailableAndDetectedIsAvailable) {
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::isa_available(simd::detected_isa()));
  const std::vector<simd::Isa> isas = simd::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (const simd::Isa isa : isas) EXPECT_TRUE(simd::isa_available(isa));
  // The detected (widest) ISA is in the list.
  EXPECT_NE(std::find(isas.begin(), isas.end(), simd::detected_isa()), isas.end());
}

TEST(SimdIsa, ScopedOverrideNestsAndRestores) {
  const simd::Isa ambient = simd::active_isa();
  {
    simd::ScopedIsa outer(simd::Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    {
      simd::ScopedIsa inner(simd::detected_isa());
      EXPECT_EQ(simd::active_isa(), simd::detected_isa());
    }
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), ambient);
}

// Forcing an ISA this host cannot run must run (and report) scalar, the
// same rule FASTZ_SIMD follows — never dispatch a kernel the CPU lacks.
TEST(SimdIsa, ScopedUnavailableIsaRunsScalar) {
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_available(isa)) continue;
    simd::ScopedIsa force(isa);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar) << simd::isa_name(isa);
    EXPECT_NE(simd::isa_report().find("active=scalar"), std::string::npos)
        << simd::isa_name(isa) << ": " << simd::isa_report();
  }
}

TEST(SimdIsa, ReportMentionsActiveIsa) {
  const std::string report = simd::isa_report();
  EXPECT_NE(report.find(simd::isa_name(simd::active_isa())), std::string::npos);
  EXPECT_NE(report.find("compiled"), std::string::npos);
}

// The vectorized row-precompute variants must equal the scalar reference
// bit-for-bit on every available ISA, including -inf saturation edges and
// unaligned spans.
TEST(RowPrecompute, VectorVariantsMatchScalar) {
  Xoshiro256 rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t count = 1 + rng.below(70);
    std::vector<Score> s_up(count), s_diag(count), gd_up(count), prof(count);
    for (std::size_t k = 0; k < count; ++k) {
      // Mix finite scores with exact -inf (the saturation edge).
      s_up[k] = rng.below(10) == 0 ? kNegativeInfinity
                                   : static_cast<Score>(rng.below(2001)) - 1000;
      s_diag[k] = rng.below(10) == 0 ? kNegativeInfinity
                                     : static_cast<Score>(rng.below(2001)) - 1000;
      gd_up[k] = rng.below(10) == 0 ? kNegativeInfinity
                                    : static_cast<Score>(rng.below(2001)) - 1000;
      prof[k] = static_cast<Score>(rng.below(251)) - 125;
    }
    const Score open_extend = -430;
    const Score extend_only = -30;

    std::vector<Score> want_d(count), want_diag(count);
    std::vector<std::uint8_t> want_opened(count);
    detail::row_precompute_scalar(s_up.data(), s_diag.data(), gd_up.data(),
                                  prof.data(), open_extend, extend_only, count,
                                  want_d.data(), want_diag.data(), want_opened.data());

    for (const simd::Isa isa : simd::available_isas()) {
      if (isa == simd::Isa::kScalar) continue;
      const detail::RowPrecomputeFn fn = detail::row_precompute_fn(isa);
      ASSERT_NE(fn, nullptr) << simd::isa_name(isa);

      std::vector<Score> got_d(count), got_diag(count);
      std::vector<std::uint8_t> got_opened(count);
      fn(s_up.data(), s_diag.data(), gd_up.data(), prof.data(), open_extend, extend_only,
         count, got_d.data(), got_diag.data(), got_opened.data(), /*lane_skew=*/0);
      EXPECT_EQ(got_d, want_d) << simd::isa_name(isa) << " count=" << count;
      EXPECT_EQ(got_diag, want_diag) << simd::isa_name(isa) << " count=" << count;
      EXPECT_EQ(got_opened, want_opened) << simd::isa_name(isa) << " count=" << count;
    }
  }
}

// The selector returns null for kScalar: callers use their original scalar
// row body rather than an indirect call.
TEST(RowPrecompute, ScalarIsaHasNoFnPointer) {
  EXPECT_EQ(detail::row_precompute_fn(simd::Isa::kScalar), nullptr);
}

}  // namespace
}  // namespace fastz
