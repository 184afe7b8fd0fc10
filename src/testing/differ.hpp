// Cross-implementation equivalence checkers.
//
// Each checker runs several independent implementations of the same
// alignment subproblem and reports every divergence as a human-readable
// string that always embeds the replay seed. The equivalence classes are
// the theorems the repository's correctness story rests on:
//
//   * unbounded y-drop: `ydrop_one_sided_align` (both prune modes) and the
//     warp-strip kernel equal `reference_extend` cell-for-cell — score,
//     optimal cell, and full traceback (CIGAR);
//   * finite y-drop: conservative pruning explores a superset of sequential
//     pruning (score and cells never smaller), the trimmed executor re-run
//     reproduces the inspector's optimal cell exactly, and every traceback
//     rescores to its claimed score;
//   * pipelines: sequential LASTZ and multicore LASTZ are bit-identical;
//     FastZ covers every LASTZ alignment (same or longer, score >=); with
//     unbounded y-drop all three report identical alignment lists.
//
// `InjectedBug` deliberately breaks one implementation ("the subject") so
// tests can prove the harness actually catches and shrinks real defects —
// the same validation discipline as mutation testing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "testing/corpus.hpp"

namespace fastz::testing {

enum class InjectedBug : std::uint8_t {
  kNone = 0,
  // The subject implementation scores gap extensions one unit too cheap
  // (its ScoreParams.gap_extend is off by +1) — a genuine wrong-DP bug.
  kGapExtend,
  // The subject drops the final traceback operation (truncated CIGAR).
  kDropOp,
  // The subject reports its optimal score one higher than computed.
  kScoreOffByOne,
  // The Hirschberg walker's column is skewed by one at every
  // divide-and-conquer handoff (OneSidedOptions::hirschberg_split_skew = 1)
  // — the canonical split-stitching defect the linear-space differ checks
  // must catch.
  kHirschbergSplit,
  // One vector lane of the y-drop row precompute's gap-open+extend constant
  // is off by one (OneSidedOptions::simd_lane_skew = 1) — a lane-local SIMD
  // defect invisible to whole-result plausibility checks. The
  // simd-vs-scalar sweep MUST catch it on any host with a vector ISA;
  // scalar-only hosts cannot express it (the scalar path ignores the
  // fault), so the canary test is registered only on SSE2/NEON builds.
  kSimdLaneGapOpen,
};

const char* bug_name(InjectedBug bug) noexcept;
// Parses "none" / "gap-extend" / "drop-op" / "score-off-by-one" /
// "hirschberg-split-off-by-one" / "simd-lane-gap-open". Throws
// std::invalid_argument on anything else.
InjectedBug parse_bug(std::string_view name);

struct DiffResult {
  std::uint64_t checks = 0;          // individual comparisons performed
  std::vector<std::string> diffs;    // one entry per divergence

  bool ok() const noexcept { return diffs.empty(); }
  void expect(bool pass, std::string message) {
    ++checks;
    if (!pass) diffs.push_back(std::move(message));
  }
};

// Runs the equivalence checks appropriate for the case's kind.
DiffResult diff_case(const FuzzCase& c, InjectedBug bug = InjectedBug::kNone);

}  // namespace fastz::testing
