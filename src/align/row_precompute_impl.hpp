// Template body of the row-precompute primitive, instantiated once per ISA
// translation unit (row_precompute_sse2/avx2/neon.cpp) — never include from
// baseline code.
#pragma once

#include "align/row_precompute.hpp"
#include "util/simd_vec.hpp"

namespace fastz::detail {

template <class V>
void row_precompute_vec(const Score* s_up, const Score* s_diag, const Score* gd_up,
                        const Score* prof, Score open_extend, Score extend_only,
                        std::size_t count, Score* d_val, Score* diag,
                        std::uint8_t* d_opened, Score lane_skew) {
  constexpr std::size_t W = V::kLanes;
  const V vneg = V::broadcast(kNegativeInfinity);
  V voe = V::broadcast(open_extend);
  const V vext = V::broadcast(extend_only);
  if (lane_skew != 0) {
    alignas(64) Score oe_lanes[W];
    voe.store(oe_lanes);
    oe_lanes[kRowSimdFaultLane % W] += lane_skew;
    voe = V::load(oe_lanes);
  }

  std::size_t k = 0;
  for (; k + W <= count; k += W) {
    const V up = V::load(s_up + k);
    const V dup = V::load(gd_up + k);
    const V d_ext = simd::add_score_vec(dup, vext, vneg);
    const V d_open = simd::add_score_vec(up, voe, vneg);
    const V opened = V::cmpge(d_open, d_ext);
    V::blend(opened, d_open, d_ext).store(d_val + k);
    simd::add_score_vec(V::load(s_diag + k), V::load(prof + k), vneg).store(diag + k);

    alignas(64) Score opened_lanes[W];
    opened.store(opened_lanes);
    for (std::size_t q = 0; q < W; ++q) {
      d_opened[k + q] = static_cast<std::uint8_t>(opened_lanes[q] & 1);
    }
  }
  if (k < count) {
    row_precompute_scalar(s_up + k, s_diag + k, gd_up + k, prof + k, open_extend,
                          extend_only, count - k, d_val + k, diag + k, d_opened + k);
  }
}

}  // namespace fastz::detail
