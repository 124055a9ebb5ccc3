// AVX-512F vector traits (see vec.hpp for the trait contract). Only
// meaningful inside the translation unit compiled with -mavx512f.
#pragma once

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstdint>

namespace ibchol::simd {

struct VecAvx512F {
  using Elem = float;
  static constexpr int kWidth = 16;
  using V = __m512;

  static V load(const float* p) { return _mm512_load_ps(p); }
  static void store(float* p, V x) { _mm512_store_ps(p, x); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_ps(a, b, c); }
  static V sqrt(V x) { return _mm512_sqrt_ps(x); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }

  static std::uint32_t gt_zero_mask(V x) {
    // Ordered non-signaling compare: NaN lanes report "not > 0".
    return _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ);
  }

  // Fast math: rsqrt14/rcp14 seeds (2^-14 relative error) + one Newton
  // step — the CPU analog of MUFU.RSQ / MUFU.RCP with the fixup.
  static V fast_rsqrt(V x) {
    const V y = _mm512_rsqrt14_ps(x);
    const V half = _mm512_set1_ps(0.5f), three = _mm512_set1_ps(3.0f);
    return _mm512_mul_ps(
        _mm512_mul_ps(half, y),
        _mm512_fnmadd_ps(_mm512_mul_ps(x, y), y, three));
  }
  static V fast_sqrt(V x) {
    const V approx = _mm512_mul_ps(x, fast_rsqrt(x));
    const __mmask16 pos =
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ);
    // Non-positive lanes (incl. NaN) take the exact sqrt: 0 -> 0,
    // negatives -> NaN, as the scalar FastMath policy guarantees.
    return _mm512_mask_blend_ps(pos, _mm512_sqrt_ps(x), approx);
  }
  static V fast_recip(V x) {
    const V y = _mm512_rcp14_ps(x);
    return _mm512_mul_ps(
        y, _mm512_fnmadd_ps(x, y, _mm512_set1_ps(2.0f)));
  }
};

struct VecAvx512D {
  using Elem = double;
  static constexpr int kWidth = 8;
  using V = __m512d;

  static V load(const double* p) { return _mm512_load_pd(p); }
  static void store(double* p, V x) { _mm512_store_pd(p, x); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_pd(a, b, c); }
  static V sqrt(V x) { return _mm512_sqrt_pd(x); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }

  static std::uint32_t gt_zero_mask(V x) {
    return _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_GT_OQ);
  }

  // Fast math is a single-precision feature (as in CUDA); double stays IEEE.
  static V fast_sqrt(V x) { return sqrt(x); }
  static V fast_recip(V x) { return div(set1(1.0), x); }
};

}  // namespace ibchol::simd

#endif  // __AVX512F__
