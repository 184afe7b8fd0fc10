// Vectorized "phase A" of the y-drop row sweep.
//
// Within one row of the y-drop DP (ydrop_row_core.hpp), the D state and the
// diagonal candidate depend only on the PREVIOUS row, so they vectorize
// cleanly, while the S/I chain carries a serial within-row dependency (the
// insertion chain reads the cell just written) and stays scalar. This
// header is the vector half: given the previous row's S/D arrays and a
// substitution profile, it precomputes, for a contiguous column span,
//
//   d_ext    = add(gd_up[k],  gap_extend)
//   d_open   = add(s_up[k],   gap_open + gap_extend)
//   d_opened = d_open >= d_ext          (the tie rule the trace codes pin)
//   d_val    = d_opened ? d_open : d_ext
//   diag     = add(s_diag[k], prof[k])
//
// with the row core's saturating add_score (kNegativeInfinity absorbs).
// Every variant is bit-identical to the scalar loop by construction — the
// scalar phase B consumes these values verbatim.
//
// Internal header of src/align (fastz::detail).
#pragma once

#include <cstddef>
#include <cstdint>

#include "score/score_params.hpp"
#include "util/simd.hpp"

namespace fastz::detail {

// Vector lane that `lane_skew` perturbs (see RowPrecomputeFn).
inline constexpr std::size_t kRowSimdFaultLane = 2;

// d_val / diag / d_opened are written for k in [0, count). All input and
// output spans may be unaligned; they must not overlap. `lane_skew` is the
// differ's SIMD mutation canary (OneSidedOptions::simd_lane_skew): it is
// added to lane kRowSimdFaultLane of the gap-open+extend vector, so only
// vector-processed columns see it. It is 0 in real use.
using RowPrecomputeFn = void (*)(const Score* s_up, const Score* s_diag,
                                 const Score* gd_up, const Score* prof,
                                 Score open_extend, Score extend_only,
                                 std::size_t count, Score* d_val, Score* diag,
                                 std::uint8_t* d_opened, Score lane_skew);

// Scalar reference (also the tail loop of every vector variant).
void row_precompute_scalar(const Score* s_up, const Score* s_diag, const Score* gd_up,
                           const Score* prof, Score open_extend, Score extend_only,
                           std::size_t count, Score* d_val, Score* diag,
                           std::uint8_t* d_opened);

// Vector variant for `isa`, or null when the ISA is scalar / not compiled
// into this binary — callers fall back to their original scalar row body.
RowPrecomputeFn row_precompute_fn(simd::Isa isa) noexcept;

}  // namespace fastz::detail
