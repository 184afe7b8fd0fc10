// 128-bit ARM row-precompute instantiation (architectural on AArch64).
#if defined(__ARM_NEON)
#include "align/row_precompute_impl.hpp"

namespace fastz::detail {

void row_precompute_neon(const Score* s_up, const Score* s_diag, const Score* gd_up,
                         const Score* prof, Score open_extend, Score extend_only,
                         std::size_t count, Score* d_val, Score* diag,
                         std::uint8_t* d_opened, Score lane_skew) {
  row_precompute_vec<simd::VecNeon>(s_up, s_diag, gd_up, prof, open_extend, extend_only,
                                    count, d_val, diag, d_opened, lane_skew);
}

}  // namespace fastz::detail
#endif
