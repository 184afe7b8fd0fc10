// 128-bit x86 row-precompute instantiation (x86-64 baseline, no flags).
#if defined(__SSE2__)
#include "align/row_precompute_impl.hpp"

namespace fastz::detail {

void row_precompute_sse2(const Score* s_up, const Score* s_diag, const Score* gd_up,
                         const Score* prof, Score open_extend, Score extend_only,
                         std::size_t count, Score* d_val, Score* diag,
                         std::uint8_t* d_opened, Score lane_skew) {
  row_precompute_vec<simd::VecSse2>(s_up, s_diag, gd_up, prof, open_extend, extend_only,
                                    count, d_val, diag, d_opened, lane_skew);
}

}  // namespace fastz::detail
#endif
