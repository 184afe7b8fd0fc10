#include "fastz/strip_kernel.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "gpusim/memory_ledger.hpp"

namespace fastz {

namespace {

constexpr Score add_score(Score base, Score delta) noexcept {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

// Per-lane register state for one anti-diagonal: the S/I/D values of the
// lane's column cell on that diagonal.
struct LaneRegs {
  Score s = kNegativeInfinity;
  Score gi = kNegativeInfinity;
  Score gd = kNegativeInfinity;
};

}  // namespace

StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     bool want_traceback) {
  params.validate();
  const auto m = static_cast<std::uint32_t>(a.size());
  const auto n = static_cast<std::uint32_t>(b.size());
  if (want_traceback && (m > kStripKernelMaxDim || n > kStripKernelMaxDim)) {
    throw std::invalid_argument("strip_rectangle_dp: rectangle too large for dense traceback");
  }

  StripKernelResult result;
  result.best = BestCell{0, 0, 0};
  const std::size_t stride = std::size_t{n} + 1;
  if (want_traceback) {
    result.trace.assign((std::size_t{m} + 1) * stride,
                        make_trace(kTraceSrcOrigin, false, false));
    // Border codes: row 0 is an insertion chain, column 0 a deletion chain.
    for (std::uint32_t j = 1; j <= n; ++j) {
      result.trace[j] = make_trace(kTraceSrcI, j == 1, false);
    }
    for (std::uint32_t i = 1; i <= m; ++i) {
      result.trace[std::size_t{i} * stride] = make_trace(kTraceSrcD, false, i == 1);
    }
  }
  if (m == 0 || n == 0) return result;

  // Boundary column spilled by each strip's last lane for the next strip's
  // lane 0 (index: row). Strip 0 reads the DP column-0 border instead.
  std::vector<Score> bound_s(std::size_t{m} + 1);
  std::vector<Score> bound_gi(std::size_t{m} + 1);

  const std::uint32_t strip_count = (n + kWarpWidth - 1) / kWarpWidth;
  result.strips = strip_count;

  // "Registers": previous two anti-diagonals per lane.
  std::array<LaneRegs, kWarpWidth> p1{};  // diagonal t-1: lane's cell (i-1, j)
  std::array<LaneRegs, kWarpWidth> p2{};  // diagonal t-2: lane's cell (i-2, j)
  std::array<LaneRegs, kWarpWidth> cur{};

  for (std::uint32_t strip = 0; strip < strip_count; ++strip) {
    const std::uint32_t j_base = strip * kWarpWidth;  // lane l owns column j_base+1+l
    const std::uint32_t lanes = std::min(kWarpWidth, n - j_base);

    for (auto& r : p1) r = LaneRegs{};
    for (auto& r : p2) r = LaneRegs{};
    for (auto& r : cur) r = LaneRegs{};

    // Column-0 border / previous strip's spilled boundary, addressed by row.
    auto boundary_s = [&](std::uint32_t i) -> Score {
      if (strip == 0) {
        return i == 0 ? 0 : params.gap_open + static_cast<Score>(i) * params.gap_extend;
      }
      return bound_s[i];
    };
    auto boundary_gi = [&](std::uint32_t i) -> Score {
      if (strip == 0) return kNegativeInfinity;
      return bound_gi[i];
    };

    // Next strip's boundary, written by the strip's last lane.
    std::vector<Score> next_bound_s;
    std::vector<Score> next_bound_gi;
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
      for (std::uint32_t l = 0; l < lanes; ++l) {
        if (t < l) break;  // lane not yet in the pipeline
        const std::uint32_t i = t - l;
        const std::uint32_t j = j_base + 1 + l;
        if (i > m) {
          cur[l] = LaneRegs{};  // lane drained out of the matrix
          continue;
        }
        if (i == 0) {
          // Row-0 border for this column enters the register pipeline.
          LaneRegs border;
          border.gi = params.gap_open + static_cast<Score>(j) * params.gap_extend;
          border.s = border.gi;
          border.gd = kNegativeInfinity;
          cur[l] = border;
          if (spill && l == last_lane && j == boundary_col) {
            next_bound_s[0] = border.s;
            next_bound_gi[0] = border.gi;
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
          s_left = p1[l - 1].s;
          gi_left = p1[l - 1].gi;
          s_diag = p2[l - 1].s;
        }
        // Own column: p1 is (i-1, j).
        const Score s_up = p1[l].s;
        const Score gd_up = p1[l].gd;

        const Score i_ext = add_score(gi_left, params.gap_extend);
        const Score i_open = add_score(s_left, params.gap_open + params.gap_extend);
        const bool i_opened = i_open >= i_ext;
        const Score i_val = i_opened ? i_open : i_ext;

        const Score d_ext = add_score(gd_up, params.gap_extend);
        const Score d_open = add_score(s_up, params.gap_open + params.gap_extend);
        const bool d_opened = d_open >= d_ext;
        const Score d_val = d_opened ? d_open : d_ext;

        const Score diag = add_score(s_diag, params.substitution(a[i - 1], b[j - 1]));
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

        cur[l] = LaneRegs{s_val, i_val, d_val};
        ++result.cells;
        result.best.consider(s_val, i, j);
        path_mask |= 1u << make_trace(s_src, i_opened, d_opened);
        ++active_lanes;
        if (want_traceback) {
          result.trace[std::size_t{i} * stride + j] = make_trace(s_src, i_opened, d_opened);
        }
        if (spill && l == last_lane) {
          next_bound_s[i] = s_val;
          next_bound_gi[i] = i_val;
        }
      }
      if (active_lanes >= 2) {
        const auto paths = static_cast<std::uint32_t>(__builtin_popcount(path_mask));
        const std::size_t slot =
            std::min<std::size_t>(paths, result.divergence_histogram.size()) - 1;
        ++result.divergence_histogram[slot];
      }
      // End of step: the warp's register rotation (cyclic use-and-discard —
      // the t-2 diagonal is dead and its registers are overwritten).
      p2 = p1;
      p1 = cur;
      ++result.warp_steps;
    }

    if (spill) {
      bound_s = std::move(next_bound_s);
      bound_gi = std::move(next_bound_gi);
      result.boundary_spill_bytes +=
          std::uint64_t{m + 1} * gpusim::kBoundarySpillBytes;
    }
  }

  if (want_traceback) {
    result.ops = walk_traceback(result.best.i, result.best.j,
                                [&](std::uint32_t i, std::uint32_t j) {
                                  return result.trace[std::size_t{i} * stride + j];
                                });
  }
  return result;
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
