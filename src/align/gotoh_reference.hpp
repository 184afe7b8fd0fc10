// Full-matrix Gotoh affine-gap DP — the correctness reference.
//
// Computes the complete (M+1) x (N+1) scoring matrices with no pruning for
// the *prefix-anchored extension* problem: align a prefix of A against a
// prefix of B, anchored at (0,0) with both ends free on the far side, and
// report the maximum-score cell. This is exactly the subproblem LASTZ's
// `ydrop_one_sided_align` solves (one direction of a seed extension); with
// an unbounded y-drop the pruned oracle must match this reference, which is
// what the test suite checks. Quadratic memory — use on small inputs only.
#pragma once

#include <cstdint>
#include <span>

#include "align/alignment.hpp"
#include "score/score_params.hpp"
#include "sequence/dna.hpp"

namespace fastz {

// Canonical tie-break for "best cell" shared by every implementation in
// this repository: maximize score; break ties toward smaller i + j (shorter
// alignment), then smaller i. Keeping one rule everywhere makes the
// inspector / executor / oracle outputs comparable cell-for-cell.
struct BestCell {
  Score score = 0;
  std::uint32_t i = 0;
  std::uint32_t j = 0;

  // Returns true if (score, i, j) candidate is strictly better.
  bool improved_by(Score s, std::uint32_t ci, std::uint32_t cj) const noexcept {
    if (s != score) return s > score;
    const std::uint64_t d_new = std::uint64_t{ci} + cj;
    const std::uint64_t d_old = std::uint64_t{i} + j;
    if (d_new != d_old) return d_new < d_old;
    return ci < i;
  }

  void consider(Score s, std::uint32_t ci, std::uint32_t cj) noexcept {
    if (improved_by(s, ci, cj)) {
      score = s;
      i = ci;
      j = cj;
    }
  }
};

struct ReferenceResult {
  BestCell best;               // best.score >= 0 (cell (0,0) scores 0)
  std::uint64_t cells = 0;     // DP cells computed (excluding borders)
  std::vector<AlignOp> ops;    // path from (0,0) to the best cell
};

// Reference extension of A[0..M) x B[0..N).
ReferenceResult reference_extend(std::span<const BaseCode> a, std::span<const BaseCode> b,
                                 const ScoreParams& params);

}  // namespace fastz
