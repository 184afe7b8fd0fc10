// Shared row-sweep core of the y-drop DP.
//
// `ydrop_one_sided_align` (full-trace path) and `ydrop_linear_traceback`
// (Hirschberg checkpoint-bisection path, ydrop_linear.cpp) must advance
// rows with EXACTLY the same arithmetic, pruning, and packed traceback
// codes: the linear path replays rows from checkpoints, and its output is
// required to be bit-identical to the full path at every split point. One
// shared row body makes that equivalence structural instead of aspirational.
//
// Internal header — everything here is an implementation detail of the two
// drivers in src/align; nothing outside `fastz::detail` should include it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "align/gotoh_reference.hpp"
#include "align/row_precompute.hpp"
#include "align/seq_view.hpp"
#include "align/traceback.hpp"
#include "score/score_params.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace fastz::detail {

// 64-byte-aligned row storage: the vectorized phase-A precompute loads the
// previous row's S/D planes with full vectors.
using AlignedScores = std::vector<Score, util::AlignedAllocator<Score, 64>>;

// One DP row: scores for columns [lo, lo + width). Pruned cells store
// kNegativeInfinity so downstream reads see them as unreachable — LASTZ's
// hard-prune semantics. Buffers are reused across rows (the inner loop must
// not allocate). Only S and D are stored: the next row reads S (diagonal,
// up) and D (up), while I runs along the row in a scalar and is never read
// back from a completed row.
struct ScoreRow {
  std::uint32_t lo = 0;
  std::uint32_t width = 0;
  std::uint32_t first = 0;  // first viable column (absolute)
  std::uint32_t last = 0;   // last viable column (absolute)
  AlignedScores s;
  AlignedScores gd;

  void ensure_capacity(std::size_t n) {
    if (s.size() < n) {
      s.resize(n);
      gd.resize(n);
    }
  }
};

struct TraceRow {
  std::uint32_t lo = 0;
  std::vector<TraceCode> codes;
};

// Saturating add that keeps kNegativeInfinity absorbing.
constexpr Score add_score(Score base, Score delta) noexcept {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

// Code of row-0 cell (0, j): the origin at j == 0, else the pure insertion
// chain (opened at j == 1). Must match what init_row0 records — the linear
// path synthesizes row-0 codes from this instead of materializing them.
constexpr TraceCode row0_code(std::uint32_t j) noexcept {
  return j == 0 ? make_trace(kTraceSrcOrigin, false, false)
                : make_trace(kTraceSrcI, j == 1, false);
}

// Engage the vectorized phase-A precompute only when the core span is at
// least this wide; narrower rows are pure overhead for a vector setup.
inline constexpr std::uint32_t kRowSimdMinSpan = 8;

// Mutable SIMD scratch owned by the row sweep. The fn pointer is resolved
// once per sweep from the active ISA; the score profile
// (profile[c][j] == subst[c][b[j]]) is built lazily up to a column
// watermark with amortized doubling so short extensions never pay for the
// full sequence. All buffers are reused across rows.
struct RowSimdState {
  RowPrecomputeFn fn = nullptr;
  std::array<AlignedScores, kAlphabetSize> profile;
  std::uint32_t built = 0;  // profile covers columns [0, built)
  AlignedScores d_val;
  AlignedScores diag;
  std::vector<std::uint8_t> d_opened;
};

// Immutable per-call state of a row sweep.
struct RowContext {
  SeqView a;
  SeqView b;
  const ScoreParams* params = nullptr;
  std::uint32_t n = 0;             // usable columns (after the max_cols clamp)
  std::uint32_t max_right_run = 0; // insertion-chain reach past the prior row
  Score open_extend = 0;
  Score extend_only = 0;
  bool sequential = false;         // PruneMode::kSequential
  Score simd_lane_skew = 0;        // OneSidedOptions::simd_lane_skew (test-only)
  mutable RowSimdState simd;       // scratch, not semantic state
};

inline RowContext make_row_context(SeqView a, SeqView b, const ScoreParams& params,
                                   std::uint32_t n, bool sequential,
                                   Score simd_lane_skew) {
  RowContext ctx;
  ctx.a = a;
  ctx.b = b;
  ctx.params = &params;
  ctx.n = n;
  ctx.sequential = sequential;
  ctx.simd_lane_skew = simd_lane_skew;
  // How far a viable insertion chain can run past the previous row's end:
  // each step costs |gap_extend|, and the chain dies once it is ydrop below
  // the best score.
  const Score extend_cost = -params.gap_extend;
  ctx.max_right_run =
      extend_cost > 0
          ? static_cast<std::uint32_t>((params.ydrop - params.gap_open) / extend_cost) + 2
          : n + 1;
  ctx.open_extend = params.gap_open + params.gap_extend;
  ctx.extend_only = params.gap_extend;
  ctx.simd.fn = row_precompute_fn(simd::active_isa());
  return ctx;
}

// Row 0: a pure insertion run from the origin. Fills `prev` (and the codes
// of `trow` when non-null) and returns the row width.
inline std::uint32_t init_row0(const RowContext& ctx, ScoreRow& prev, TraceRow* trow) {
  const ScoreParams& params = *ctx.params;
  prev.ensure_capacity(std::size_t{std::min(ctx.n, ctx.max_right_run)} + 2);
  prev.lo = 0;
  prev.s[0] = 0;
  prev.gd[0] = kNegativeInfinity;
  std::uint32_t w = 1;
  if (trow != nullptr) {
    trow->lo = 0;
    trow->codes.assign(1, row0_code(0));
  }
  for (std::uint32_t j = 1; j <= ctx.n; ++j) {
    const Score gi = params.gap_open + static_cast<Score>(j) * params.gap_extend;
    if (gi < -params.ydrop) break;  // best is still 0 at (0,0)
    prev.s[w] = gi;
    prev.gd[w] = kNegativeInfinity;
    ++w;
    if (trow != nullptr) trow->codes.push_back(row0_code(j));
  }
  prev.width = w;
  prev.first = 0;
  prev.last = w - 1;
  return w;
}

struct RowOutcome {
  bool any_viable = false;
  std::uint32_t first_viable = 0;
  std::uint32_t last_viable = 0;
  std::uint64_t cells = 0;  // DP cells computed by this row
};

// Advances one DP row: computes row `row` into `cur` from the completed row
// `prev`, updating `best` exactly as the prune mode dictates (kSeq,
// sequential: cell-by-cell with a moving cutoff; otherwise conservative:
// merged after the row from a cutoff frozen at the best of completed rows).
// kTrace records the row's packed traceback codes into `*trow` (window [lo,
// lo + codes.size())); without it `trow` is ignored. Both flags are compile
// time, so the per-cell loop carries no mode tests. The caller swaps
// prev/cur on a viable outcome and terminates the sweep otherwise —
// identical control flow in every sweep.
template <bool kTrace, bool kSeq>
RowOutcome advance_row(const RowContext& ctx, std::uint32_t row, ScoreRow& prev,
                       ScoreRow& cur, BestCell& best, TraceRow* trow) {
  const ScoreParams& params = *ctx.params;
  RowOutcome outcome;

  const std::uint32_t prev_lo = prev.lo;
  const std::uint32_t prev_hi = prev_lo + prev.width;
  const std::uint32_t start_lo = prev.first;

  // Upper bound on this row's extent: the previous row's data plus a
  // bounded insertion run (and never past column n).
  const std::uint32_t j_cap = std::min(ctx.n, prev_hi + ctx.max_right_run);
  cur.ensure_capacity(std::size_t{j_cap} - start_lo + 2);
  cur.lo = start_lo;

  // Conservative mode keeps the cutoff frozen at the best of completed rows
  // and merges this row's best after the row; sequential mode lets `best`
  // and the cutoff advance within the row.
  BestCell row_best = best;
  Score cutoff = best.score - params.ydrop;

  TraceCode* tc = nullptr;
  if constexpr (kTrace) {
    trow->lo = start_lo;
    trow->codes.clear();
    trow->codes.resize(std::size_t{j_cap} - start_lo + 2);
    tc = trow->codes.data();
  }

  bool any_viable = false;
  std::uint32_t first_viable = 0;
  std::uint32_t last_viable = 0;

  const BaseCode a_base = ctx.a[row - 1];
  const Score* const sub_row = params.subst[a_base].data();

  Score* const cs = cur.s.data();
  Score* const cd = cur.gd.data();
  const Score* const ps = prev.s.data();
  const Score* const pd = prev.gd.data();

  // Phase A (vectorized): precompute the D candidates and diagonal sums for
  // the core span where both the up and the diag cell fall inside the
  // previous row — those depend only on completed prev-row data, so they
  // vectorize cleanly. The serial S/I chain, pruning, best tracking, and
  // traceback packing stay in the scalar loop below, which consumes these
  // arrays. The scalar early-break fires only at j >= prev_hi, strictly past
  // the core span, so no precomputed cell is wasted.
  std::uint32_t core_lo = 0;
  std::uint32_t core_count = 0;
  if (ctx.simd.fn != nullptr) {
    const std::uint32_t span_lo = std::max(std::max(start_lo, 1u), prev_lo + 1);
    const std::uint32_t span_hi = std::min(j_cap, prev_hi - 1);  // inclusive
    if (span_lo <= span_hi && span_hi - span_lo + 1 >= kRowSimdMinSpan) {
      RowSimdState& st = ctx.simd;
      if (st.built < span_hi) {
        const std::uint32_t grown = std::min(
            ctx.n, std::max({span_hi, st.built * 2, std::uint32_t{256}}));
        for (std::uint32_t c = 0; c < kAlphabetSize; ++c) st.profile[c].resize(grown);
        for (std::uint32_t col = st.built; col < grown; ++col) {
          const BaseCode b_code = ctx.b[col];
          for (std::uint32_t c = 0; c < kAlphabetSize; ++c) {
            st.profile[c][col] = params.subst[c][b_code];
          }
        }
        st.built = grown;
      }
      core_lo = span_lo;
      core_count = span_hi - span_lo + 1;
      if (st.d_val.size() < core_count) {
        st.d_val.resize(core_count);
        st.diag.resize(core_count);
        st.d_opened.resize(core_count);
      }
      st.fn(ps + (span_lo - prev_lo), ps + (span_lo - 1 - prev_lo),
            pd + (span_lo - prev_lo), st.profile[a_base].data() + (span_lo - 1),
            ctx.open_extend, ctx.extend_only, core_count, st.d_val.data(),
            st.diag.data(), st.d_opened.data(), ctx.simd_lane_skew);
    }
  }
  const Score* const sim_d = ctx.simd.d_val.data();
  const Score* const sim_g = ctx.simd.diag.data();
  const std::uint8_t* const sim_o = ctx.simd.d_opened.data();

  // Previous-row reads for absolute column j:
  //   s_diag = prev S at j-1, s_up / d_up = prev S / D at j.
  // Valid range for prev arrays: [prev_lo, prev_hi).
  std::uint32_t out = 0;  // index into cur arrays (column start_lo + out)
  Score left_s = kNegativeInfinity;  // cur row, column j-1
  Score left_i = kNegativeInfinity;

  std::uint32_t j = start_lo;
  // Column 0 border cell (only when the region still touches column 0). Its
  // I is unreachable, so left_i stays kNegativeInfinity.
  if (j == 0) {
    const Score d_val = params.gap_open + static_cast<Score>(row) * params.gap_extend;
    const bool viable = d_val >= cutoff;
    cs[0] = viable ? d_val : kNegativeInfinity;
    cd[0] = viable ? d_val : kNegativeInfinity;
    if constexpr (kTrace) tc[0] = make_trace(kTraceSrcD, false, row == 1);
    if (viable) {
      any_viable = true;
      first_viable = 0;
      last_viable = 0;
      if constexpr (kSeq) {
        best.consider(cs[0], row, 0);
        cutoff = best.score - params.ydrop;
      } else {
        row_best.consider(cs[0], row, 0);
      }
    }
    left_s = cs[0];
    ++outcome.cells;
    out = 1;
    j = 1;
  }

  for (; j <= j_cap; ++j, ++out) {
    // I: gap in A — arrive from the left (current row).
    const Score i_ext = add_score(left_i, ctx.extend_only);
    const Score i_open = add_score(left_s, ctx.open_extend);
    const bool i_opened = i_open >= i_ext;
    const Score i_val = i_opened ? i_open : i_ext;

    // D: gap in B — arrive from above (previous row); diag: substitution
    // candidate. Inside the core span both come precomputed from phase A
    // (bit-identical arithmetic); outside it the scalar forms below also
    // handle the missing-neighbor edges.
    Score d_val;
    Score diag;
    bool d_opened;
    if (j - core_lo < core_count) {  // unsigned: j < core_lo wraps huge
      const std::uint32_t ck = j - core_lo;
      d_val = sim_d[ck];
      diag = sim_g[ck];
      d_opened = sim_o[ck] != 0;
    } else {
      const bool has_up = (j >= prev_lo) & (j < prev_hi);
      const Score s_up = has_up ? ps[j - prev_lo] : kNegativeInfinity;
      const Score d_up = has_up ? pd[j - prev_lo] : kNegativeInfinity;
      const Score d_ext = add_score(d_up, ctx.extend_only);
      const Score d_open = add_score(s_up, ctx.open_extend);
      d_opened = d_open >= d_ext;
      d_val = d_opened ? d_open : d_ext;

      const bool has_diag = (j > prev_lo) & (j <= prev_hi);
      const Score s_diag = has_diag ? ps[j - 1 - prev_lo] : kNegativeInfinity;
      diag = add_score(s_diag, sub_row[ctx.b[j - 1]]);
    }

    // S: diagonal vs the gap states (tie preference diag > I > D).
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
    ++outcome.cells;
    if constexpr (kTrace) tc[out] = make_trace(s_src, i_opened, d_opened);

    const bool viable = s_val > kNegativeInfinity && s_val >= cutoff;
    if (viable) {
      cs[out] = s_val;
      cd[out] = d_val;
      if constexpr (kSeq) {
        if (best.improved_by(s_val, row, j)) {
          best = BestCell{s_val, row, j};
          cutoff = s_val - params.ydrop;
        }
      } else {
        row_best.consider(s_val, row, j);
      }
      if (!any_viable) {
        any_viable = true;
        first_viable = j;
      }
      last_viable = j;
      left_s = s_val;
      left_i = i_val;
    } else {
      cs[out] = kNegativeInfinity;
      cd[out] = kNegativeInfinity;
      left_s = kNegativeInfinity;
      left_i = kNegativeInfinity;
      // Beyond the previous row's interval only the intra-row insertion
      // chain can carry scores; once it breaks, the row is finished.
      if (j + 1 > prev_hi) {
        ++out;
        break;
      }
    }
  }

  if constexpr (!kSeq) best = row_best;

  cur.width = out;
  cur.first = first_viable;
  cur.last = last_viable;
  if constexpr (kTrace) {
    if (any_viable) trow->codes.resize(out);
  }

  outcome.any_viable = any_viable;
  outcome.first_viable = first_viable;
  outcome.last_viable = last_viable;
  return outcome;
}

// The advance_row instantiation for a sweep's mode: traced or not, and the
// prune mode of ctx. ydrop_one_sided_align and ydrop_linear_traceback
// resolve it once per sweep and call it per row.
using AdvanceRowFn = RowOutcome (*)(const RowContext&, std::uint32_t, ScoreRow&, ScoreRow&,
                                    BestCell&, TraceRow*);

inline AdvanceRowFn advance_row_fn(bool trace, bool sequential) {
  if (trace) return sequential ? &advance_row<true, true> : &advance_row<true, false>;
  return sequential ? &advance_row<false, true> : &advance_row<false, false>;
}

}  // namespace fastz::detail
