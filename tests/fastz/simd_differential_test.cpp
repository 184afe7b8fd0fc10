// SIMD-vs-scalar equivalence across the fuzz corpus.
//
// The vectorized y-drop row sweep (the row core's phase-A precompute, the
// repository's one vectorized DP path) must be bit-identical to its scalar
// loop. The differ (src/testing/differ.cpp, diff_simd_vs_scalar) pins
// field-for-field equality on the one-sided kinds; this suite widens the
// net:
//
//   * every corpus kind runs its full differential check under every ISA
//     available on the host — the pipeline/service/long-tail invariants
//     must hold no matter what the hot paths dispatch on;
//   * the end-to-end FastZ alignment list is compared across ISAs;
//   * the injected lane fault (the simd-lane-gap-open canary's mechanism)
//     provably diverges whenever a vector ISA executes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "align/ydrop_align.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "testing/corpus.hpp"
#include "testing/differ.hpp"
#include "util/simd.hpp"

namespace fastz {
namespace {

using testing::CaseKind;
using testing::diff_case;
using testing::DiffResult;
using testing::FuzzCase;
using testing::kCaseKindCount;
using testing::make_case_of_kind;

// The long-tail kinds realign tens of kbp per case; everything else is
// cheap. One case per kind per ISA keeps the suite inside tier-1 budget
// while still touching every equivalence class.
TEST(SimdDifferential, EveryCorpusKindCleanUnderEveryIsa) {
  const std::vector<simd::Isa> isas = simd::available_isas();
  for (std::size_t k = 0; k < kCaseKindCount; ++k) {
    const CaseKind kind = static_cast<CaseKind>(k);
    const FuzzCase c = make_case_of_kind(/*seed=*/1844 + k, kind);
    // Long-tail cases realign tens of kbp; scalar + the widest ISA bound
    // both ends of the dispatch, middle ISAs are covered by the cheap kinds.
    const bool long_kind =
        kind == CaseKind::kLongRelated || kind == CaseKind::kLongStructuralIndel;
    for (const simd::Isa isa : isas) {
      if (long_kind && isa != simd::Isa::kScalar && isa != simd::detected_isa()) {
        continue;
      }
      simd::ScopedIsa force(isa);
      const DiffResult result = diff_case(c);
      EXPECT_TRUE(result.ok())
          << "kind " << testing::case_kind_name(kind) << " under "
          << simd::isa_name(isa) << ":\n"
          << (result.diffs.empty() ? std::string() : result.diffs.front());
    }
  }
}

// End-to-end: the FastZ pipeline's alignment list must not depend on the
// ISA the DP kernels dispatched on.
TEST(SimdDifferential, PipelineAlignmentsIsaInvariant) {
  const FuzzCase c = make_case_of_kind(/*seed=*/7, CaseKind::kPipelineExact);

  std::vector<Alignment> scalar_alignments;
  {
    simd::ScopedIsa force(simd::Isa::kScalar);
    const FastzStudy study(c.a, c.b, c.params, c.pipeline);
    scalar_alignments = study.alignments();
  }
  EXPECT_FALSE(scalar_alignments.empty()) << "seed 7 produced no alignments";

  for (const simd::Isa isa : simd::available_isas()) {
    if (isa == simd::Isa::kScalar) continue;
    simd::ScopedIsa force(isa);
    const FastzStudy study(c.a, c.b, c.params, c.pipeline);
    const std::vector<Alignment> got = study.alignments();
    ASSERT_EQ(got.size(), scalar_alignments.size()) << simd::isa_name(isa);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, scalar_alignments[i].score) << simd::isa_name(isa);
      EXPECT_EQ(got[i].a_begin, scalar_alignments[i].a_begin) << simd::isa_name(isa);
      EXPECT_EQ(got[i].a_end, scalar_alignments[i].a_end) << simd::isa_name(isa);
      EXPECT_EQ(got[i].b_begin, scalar_alignments[i].b_begin) << simd::isa_name(isa);
      EXPECT_EQ(got[i].b_end, scalar_alignments[i].b_end) << simd::isa_name(isa);
      EXPECT_EQ(got[i].ops, scalar_alignments[i].ops) << simd::isa_name(isa);
    }
  }
}

// The canary mechanism: perturbing one vector lane of the row precompute's
// gap-open constant must change the vectorized sweep's output under every
// vector ISA. If this ever passes silently, the fault plumbing is dead and
// fuzz_simd_canary is testing nothing. An off-by-one in one lane of the D
// precompute surfaces only where a walked path leans on that lane's D
// state, so the fixture is a case known to expose it (related kind, seed 23).
TEST(SimdDifferential, LaneFaultDivergesOnVectorIsa) {
  if (simd::available_isas().size() <= 1) {
    GTEST_SKIP() << "no vector ISA available on this host";
  }
  const FuzzCase c = make_case_of_kind(/*seed=*/23, CaseKind::kOneSidedRelated);
  const DiffResult clean = diff_case(c);
  EXPECT_TRUE(clean.ok()) << (clean.diffs.empty() ? std::string()
                                                  : clean.diffs.front());
  const DiffResult faulty = diff_case(c, testing::InjectedBug::kSimdLaneGapOpen);
  for (const simd::Isa isa : simd::available_isas()) {
    if (isa == simd::Isa::kScalar) continue;
    const std::string who = std::string("[") + simd::isa_name(isa) + "]";
    bool caught = false;
    for (const std::string& d : faulty.diffs) {
      caught = caught || d.find(who) != std::string::npos;
    }
    EXPECT_TRUE(caught) << "one-lane gap-open fault was not detected under "
                        << simd::isa_name(isa);
  }
}

// Direct fault check at the y-drop API, independent of the differ: the
// scalar row body must ignore the lane fault entirely.
TEST(SimdDifferential, ScalarPathIgnoresFaultInjection) {
  const FuzzCase c = make_case_of_kind(/*seed=*/3, CaseKind::kOneSidedRelated);

  simd::ScopedIsa force(simd::Isa::kScalar);
  const OneSidedOptions plain;
  OneSidedOptions faulted;
  faulted.simd_lane_skew = 1000;

  const OneSidedResult a = ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, plain);
  const OneSidedResult b =
      ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, faulted);
  EXPECT_EQ(a.best.score, b.best.score);
  EXPECT_EQ(a.best.i, b.best.i);
  EXPECT_EQ(a.best.j, b.best.j);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.ops, b.ops);
}

}  // namespace
}  // namespace fastz
