#include "align/gotoh_reference.hpp"

#include <vector>

#include "align/traceback.hpp"

namespace fastz {

ReferenceResult reference_extend(std::span<const BaseCode> a, std::span<const BaseCode> b,
                                 const ScoreParams& params) {
  params.validate();
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t stride = n + 1;
  const Score open_extend = params.gap_open + params.gap_extend;

  std::vector<Score> s((m + 1) * stride, kNegativeInfinity);
  std::vector<Score> gi((m + 1) * stride, kNegativeInfinity);
  std::vector<Score> gd((m + 1) * stride, kNegativeInfinity);
  std::vector<TraceCode> trace((m + 1) * stride, make_trace(kTraceSrcOrigin, false, false));

  auto idx = [stride](std::size_t i, std::size_t j) { return i * stride + j; };

  ReferenceResult result;
  s[idx(0, 0)] = 0;

  // Borders: pure gap runs from the origin.
  for (std::size_t j = 1; j <= n; ++j) {
    gi[idx(0, j)] = params.gap_open + static_cast<Score>(j) * params.gap_extend;
    s[idx(0, j)] = gi[idx(0, j)];
    trace[idx(0, j)] = make_trace(kTraceSrcI, j == 1, false);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    gd[idx(i, 0)] = params.gap_open + static_cast<Score>(i) * params.gap_extend;
    s[idx(i, 0)] = gd[idx(i, 0)];
    trace[idx(i, 0)] = make_trace(kTraceSrcD, false, i == 1);
  }

  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      // I: gap in A — arrive from the left.
      const Score i_ext = gi[idx(i, j - 1)] + params.gap_extend;
      const Score i_open = s[idx(i, j - 1)] + open_extend;
      const bool i_opened = i_open >= i_ext;
      const Score i_val = i_opened ? i_open : i_ext;

      // D: gap in B — arrive from above; diag: substitution candidate.
      const Score d_ext = gd[idx(i - 1, j)] + params.gap_extend;
      const Score d_open = s[idx(i - 1, j)] + open_extend;
      const bool d_opened = d_open >= d_ext;
      const Score d_val = d_opened ? d_open : d_ext;
      const Score diag = s[idx(i - 1, j - 1)] + params.substitution(a[i - 1], b[j - 1]);

      // S: diagonal vs the two gap states. Preference order on ties is
      // diag > I > D, matching the oracle and the FastZ kernels.
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

      s[idx(i, j)] = s_val;
      gi[idx(i, j)] = i_val;
      gd[idx(i, j)] = d_val;
      trace[idx(i, j)] = make_trace(s_src, i_opened, d_opened);
      ++result.cells;

      result.best.consider(s_val, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
    }
  }

  result.ops = walk_traceback(result.best.i, result.best.j,
                              [&](std::uint32_t i, std::uint32_t j) {
                                return trace[idx(i, j)];
                              });
  return result;
}

}  // namespace fastz
