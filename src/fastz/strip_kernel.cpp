#include "fastz/strip_kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gpusim/memory_ledger.hpp"

namespace fastz {

namespace {

constexpr Score strip_add_score(Score base, Score delta) noexcept {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

// SoA lane state. Each "register file" is one contiguous Score array per
// live diagonal; the end-of-step rotation exchanges pointers instead of
// copying 32-lane structs (the AoS `p2 = p1; p1 = cur` full-array copies
// this replaced are preserved in strip_rectangle_dp_reference). The planes
// are cache-line aligned, so each 32-lane plane spans exactly two lines.
//
// Depth per file follows what the data flow actually reads:
//   S needs three diagonals (s_diag comes from t-2), I and D only two
//   (gi_left / gd_up come from t-1; their t-2 values are dead).
struct LaneFiles {
  alignas(64) Score s[3][kWarpWidth];
  alignas(64) Score gi[2][kWarpWidth];
  alignas(64) Score gd[2][kWarpWidth];

  Score* s_p2;
  Score* s_p1;
  Score* s_cur;
  Score* gi_p1;
  Score* gi_cur;
  Score* gd_p1;
  Score* gd_cur;

  // Strip entry: every diagonal of every file holds -inf (the AoS
  // LaneRegs{} default).
  void reset() noexcept {
    for (auto& diag : s) std::fill(diag, diag + kWarpWidth, kNegativeInfinity);
    for (auto& diag : gi) std::fill(diag, diag + kWarpWidth, kNegativeInfinity);
    for (auto& diag : gd) std::fill(diag, diag + kWarpWidth, kNegativeInfinity);
    s_p2 = s[0];
    s_p1 = s[1];
    s_cur = s[2];
    gi_p1 = gi[0];
    gi_cur = gi[1];
    gd_p1 = gd[0];
    gd_cur = gd[1];
  }

  // End of step: the t-2 diagonal is dead; its storage becomes the next
  // step's cur. Values for lanes not yet (or no longer) in the pipeline go
  // stale in the recycled buffers, but the sweep never reads a lane's state
  // before that lane's first write of the step that produces it.
  void rotate() noexcept {
    Score* const dead = s_p2;
    s_p2 = s_p1;
    s_p1 = s_cur;
    s_cur = dead;
    std::swap(gi_p1, gi_cur);
    std::swap(gd_p1, gd_cur);
  }
};

// The anti-diagonal sweep over all strips. WantTrace / Census lift the
// per-cell traceback store and the per-step divergence census out of the
// hot loop at compile time: the score-only instantiation carries no
// bookkeeping branches in the lane loop at all.
template <bool WantTrace, bool Census>
void run_strips(SeqView a, SeqView b, const ScoreParams& params,
                StripKernelResult& result, StripKernelScratch& scratch) {
  const auto m = static_cast<std::uint32_t>(a.size());
  const auto n = static_cast<std::uint32_t>(b.size());
  const std::size_t stride = std::size_t{n} + 1;

  // Boundary column spilled by each strip's last lane for the next strip's
  // lane 0 (index: row). Strip 0 reads the DP column-0 border instead.
  // Double-buffered across strips in the caller's scratch arena, so the
  // per-strip reset is an assign and the steady state never allocates.
  scratch.bound_s.resize(std::size_t{m} + 1);
  scratch.bound_gi.resize(std::size_t{m} + 1);
  std::vector<Score>& bound_s = scratch.bound_s;
  std::vector<Score>& bound_gi = scratch.bound_gi;
  std::vector<Score>& next_bound_s = scratch.next_bound_s;
  std::vector<Score>& next_bound_gi = scratch.next_bound_gi;

  const std::uint32_t strip_count = (n + kWarpWidth - 1) / kWarpWidth;
  result.strips = strip_count;

  LaneFiles regs;

  for (std::uint32_t strip = 0; strip < strip_count; ++strip) {
    const std::uint32_t j_base = strip * kWarpWidth;  // lane l owns column j_base+1+l
    const std::uint32_t lanes = std::min(kWarpWidth, n - j_base);

    regs.reset();

    // Column-0 border / previous strip's spilled boundary, addressed by row.
    const bool first_strip = (strip == 0);
    auto boundary_s = [&](std::uint32_t i) -> Score {
      if (first_strip) {
        return i == 0 ? 0 : params.gap_open + static_cast<Score>(i) * params.gap_extend;
      }
      return bound_s[i];
    };
    auto boundary_gi = [&](std::uint32_t i) -> Score {
      if (first_strip) return kNegativeInfinity;
      return bound_gi[i];
    };

    // Next strip's boundary, written by the strip's last lane.
    const bool spill = (strip + 1 < strip_count);
    if (spill) {
      next_bound_s.assign(std::size_t{m} + 1, kNegativeInfinity);
      next_bound_gi.assign(std::size_t{m} + 1, kNegativeInfinity);
    }
    const std::uint32_t last_lane = lanes - 1;
    const std::uint32_t boundary_col = j_base + lanes;  // absolute j of last lane

    // Anti-diagonal sweep. Step t: lane l computes row i = t - l.
    const std::uint32_t t_end = m + lanes;  // last step computes (m, last column)
    for (std::uint32_t t = 0; t <= t_end; ++t) {
      // Control-divergence census for this step: which max-operator outcome
      // combinations do the active lanes take?
      std::uint32_t path_mask = 0;
      std::uint32_t active_lanes = 0;
      const std::uint32_t l_end = std::min(last_lane, t);  // lanes in the pipeline
      for (std::uint32_t l = 0; l <= l_end; ++l) {
        const std::uint32_t i = t - l;
        const std::uint32_t j = j_base + 1 + l;
        if (i > m) {
          // Lane drained out of the matrix.
          regs.s_cur[l] = kNegativeInfinity;
          regs.gi_cur[l] = kNegativeInfinity;
          regs.gd_cur[l] = kNegativeInfinity;
          continue;
        }
        if (i == 0) {
          // Row-0 border for this column enters the register pipeline.
          const Score border_gi = params.gap_open + static_cast<Score>(j) * params.gap_extend;
          regs.s_cur[l] = border_gi;
          regs.gi_cur[l] = border_gi;
          regs.gd_cur[l] = kNegativeInfinity;
          if (spill && l == last_lane && j == boundary_col) {
            next_bound_s[0] = border_gi;
            next_bound_gi[0] = border_gi;
          }
          continue;
        }

        // Neighbor values via the register exchange: lane l-1 holds column
        // j-1. Its p1 is (i, j-1) and p2 is (i-1, j-1). Lane 0 reads the
        // spilled boundary column instead.
        Score s_left, gi_left, s_diag;
        if (l == 0) {
          s_left = boundary_s(i);
          gi_left = boundary_gi(i);
          s_diag = boundary_s(i - 1);
        } else {
          s_left = regs.s_p1[l - 1];
          gi_left = regs.gi_p1[l - 1];
          s_diag = regs.s_p2[l - 1];
        }
        // Own column: p1 is (i-1, j).
        const Score s_up = regs.s_p1[l];
        const Score gd_up = regs.gd_p1[l];

        const Score i_ext = strip_add_score(gi_left, params.gap_extend);
        const Score i_open = strip_add_score(s_left, params.gap_open + params.gap_extend);
        const bool i_opened = i_open >= i_ext;
        const Score i_val = i_opened ? i_open : i_ext;

        const Score d_ext = strip_add_score(gd_up, params.gap_extend);
        const Score d_open = strip_add_score(s_up, params.gap_open + params.gap_extend);
        const bool d_opened = d_open >= d_ext;
        const Score d_val = d_opened ? d_open : d_ext;

        const Score diag = strip_add_score(s_diag, params.substitution(a[i - 1], b[j - 1]));
        Score s_val = diag;
        TraceCode s_src = kTraceSrcDiag;
        if (i_val > s_val) {
          s_val = i_val;
          s_src = kTraceSrcI;
        }
        if (d_val > s_val) {
          s_val = d_val;
          s_src = kTraceSrcD;
        }

        regs.s_cur[l] = s_val;
        regs.gi_cur[l] = i_val;
        regs.gd_cur[l] = d_val;
        ++result.cells;
        result.best.consider(s_val, i, j);
        if constexpr (Census) {
          path_mask |= 1u << make_trace(s_src, i_opened, d_opened);
          ++active_lanes;
        }
        if constexpr (WantTrace) {
          result.trace[std::size_t{i} * stride + j] = make_trace(s_src, i_opened, d_opened);
        }
        if (spill && l == last_lane) {
          next_bound_s[i] = s_val;
          next_bound_gi[i] = i_val;
        }
      }
      if constexpr (Census) {
        if (active_lanes >= 2) {
          const auto paths = static_cast<std::uint32_t>(__builtin_popcount(path_mask));
          const std::size_t slot =
              std::min<std::size_t>(paths, result.divergence_histogram.size()) - 1;
          ++result.divergence_histogram[slot];
        }
      }
      // End of step: the warp's register rotation (cyclic use-and-discard —
      // the t-2 diagonal is dead and its registers are overwritten).
      regs.rotate();
      ++result.warp_steps;
    }

    if (spill) {
      std::swap(bound_s, next_bound_s);
      std::swap(bound_gi, next_bound_gi);
      result.boundary_spill_bytes +=
          std::uint64_t{m + 1} * gpusim::kBoundarySpillBytes;
    }
  }
}

}  // namespace

StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     const StripKernelOptions& opts,
                                     StripKernelScratch& scratch) {
  params.validate();
  const auto m = static_cast<std::uint32_t>(a.size());
  const auto n = static_cast<std::uint32_t>(b.size());
  if (opts.want_traceback && (m > kStripKernelMaxDim || n > kStripKernelMaxDim)) {
    throw std::invalid_argument("strip_rectangle_dp: rectangle too large for dense traceback");
  }

  StripKernelResult result;
  result.best = BestCell{0, 0, 0};
  const std::size_t stride = std::size_t{n} + 1;
  if (opts.want_traceback) {
    result.trace.assign(std::size_t{m + 1} * stride, make_trace(kTraceSrcOrigin, false, false));
    // Border codes: row 0 is an insertion chain, column 0 a deletion chain.
    for (std::uint32_t j = 1; j <= n; ++j) {
      result.trace[j] = make_trace(kTraceSrcI, j == 1, false);
    }
    for (std::uint32_t i = 1; i <= m; ++i) {
      result.trace[std::size_t{i} * stride] = make_trace(kTraceSrcD, false, i == 1);
    }
  }
  if (m == 0 || n == 0) return result;

  if (opts.want_traceback) {
    if (opts.divergence_census) {
      run_strips<true, true>(a, b, params, result, scratch);
    } else {
      run_strips<true, false>(a, b, params, result, scratch);
    }
  } else {
    if (opts.divergence_census) {
      run_strips<false, true>(a, b, params, result, scratch);
    } else {
      run_strips<false, false>(a, b, params, result, scratch);
    }
  }

  if (opts.want_traceback) {
    result.ops = walk_traceback(result.best.i, result.best.j,
                                [&](std::uint32_t i, std::uint32_t j) {
                                  return result.trace[std::size_t{i} * stride + j];
                                });
  }
  return result;
}

StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     const StripKernelOptions& opts) {
  // Shared per-thread arena: per-seed callers that don't manage their own
  // scratch still hit the allocation-free steady state.
  thread_local StripKernelScratch scratch;
  return strip_rectangle_dp(a, b, params, opts, scratch);
}

StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     bool want_traceback) {
  StripKernelOptions opts;
  opts.want_traceback = want_traceback;
  return strip_rectangle_dp(a, b, params, opts);
}

double StripKernelResult::mean_divergent_paths() const noexcept {
  std::uint64_t steps = 0;
  std::uint64_t paths = 0;
  for (std::size_t k = 0; k < divergence_histogram.size(); ++k) {
    steps += divergence_histogram[k];
    paths += divergence_histogram[k] * (k + 1);
  }
  return steps == 0 ? 0.0 : static_cast<double>(paths) / static_cast<double>(steps);
}

}  // namespace fastz
