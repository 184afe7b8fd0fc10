// Minimal i32 vector wrappers behind the row precompute
// (align/row_precompute_impl.hpp).
//
// Each struct wraps one native register width with the few operations the
// D/diagonal recurrences need (load / store / broadcast / add / compares /
// blend). The wrappers are defined only when the including translation
// unit is compiled for the matching ISA (`__SSE2__` / `__AVX2__` /
// `__ARM_NEON`): the per-ISA TUs get their flags from CMake (e.g. `-mavx2`
// on row_precompute_avx2.cpp), so a template kernel instantiated on
// VecAvx2 never leaks AVX2 instructions into baseline code.
//
// Masks are ordinary vectors holding all-ones (-1) or all-zeros per lane,
// the native compare result representation on every target.
#pragma once

#include "score/score_params.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace fastz::simd {

#if defined(__SSE2__)

struct VecSse2 {
  static constexpr int kLanes = 4;
  __m128i v;

  static VecSse2 load(const Score* p) noexcept {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(Score* p) const noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static VecSse2 broadcast(Score x) noexcept { return {_mm_set1_epi32(x)}; }

  friend VecSse2 operator+(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_add_epi32(a.v, b.v)};
  }
  static VecSse2 cmpgt(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_cmpgt_epi32(a.v, b.v)};
  }
  static VecSse2 cmpge(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_si128(_mm_cmpgt_epi32(a.v, b.v), _mm_cmpeq_epi32(a.v, b.v))};
  }
  // mask ? a : b, lane-wise (mask lanes all-ones / all-zeros).
  static VecSse2 blend(VecSse2 mask, VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_si128(_mm_and_si128(mask.v, a.v), _mm_andnot_si128(mask.v, b.v))};
  }
};

#endif  // __SSE2__

#if defined(__AVX2__)

struct VecAvx2 {
  static constexpr int kLanes = 8;
  __m256i v;

  static VecAvx2 load(const Score* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(Score* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static VecAvx2 broadcast(Score x) noexcept { return {_mm256_set1_epi32(x)}; }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_add_epi32(a.v, b.v)};
  }
  static VecAvx2 cmpgt(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
  }
  static VecAvx2 cmpge(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_or_si256(_mm256_cmpgt_epi32(a.v, b.v),
                            _mm256_cmpeq_epi32(a.v, b.v))};
  }
  static VecAvx2 blend(VecAvx2 mask, VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
  }
};

#endif  // __AVX2__

#if defined(__ARM_NEON)

struct VecNeon {
  static constexpr int kLanes = 4;
  int32x4_t v;

  static VecNeon load(const Score* p) noexcept { return {vld1q_s32(p)}; }
  void store(Score* p) const noexcept { vst1q_s32(p, v); }
  static VecNeon broadcast(Score x) noexcept { return {vdupq_n_s32(x)}; }

  friend VecNeon operator+(VecNeon a, VecNeon b) noexcept {
    return {vaddq_s32(a.v, b.v)};
  }
  static VecNeon cmpgt(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_s32_u32(vcgtq_s32(a.v, b.v))};
  }
  static VecNeon cmpge(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_s32_u32(vcgeq_s32(a.v, b.v))};
  }
  static VecNeon blend(VecNeon mask, VecNeon a, VecNeon b) noexcept {
    return {vbslq_s32(vreinterpretq_u32_s32(mask.v), a.v, b.v)};
  }
};

#endif  // __ARM_NEON

// Saturating score add with kNegativeInfinity absorbing — the vector form
// of the y-drop row core's scalar `add_score(base, delta)`. `neg_inf` is the
// pre-broadcast kNegativeInfinity vector.
template <class V>
inline V add_score_vec(V base, V delta, V neg_inf) noexcept {
  return V::blend(V::cmpgt(base, neg_inf), base + delta, neg_inf);
}

}  // namespace fastz::simd
