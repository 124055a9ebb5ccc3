// Generic (ISA-agnostic) vector trait for the vectorized executor.
//
// Every tile-kernel body in vec_exec_impl.hpp is a template over a trait
// class V describing one vector of V::kWidth lanes: how to load/store it
// aligned, the FMA forms the kernels use, and the square root / reciprocal
// of the two math policies. Three trait families exist: this portable one
// (plain arrays, compiled unconditionally — the scalar tier), and the
// AVX2 / AVX-512 intrinsic traits in vec_avx2.hpp / vec_avx512.hpp, each
// compiled in its own translation unit with per-file ISA flags.
//
// Math-policy contract (see DESIGN.md §7): the IEEE operations
// (sqrt/div/fma) are correctly rounded on every tier, so IEEE-math factors
// are bit-identical across tiers and to the interpreter oracle (which the
// compiler contracts onto FMA the same way). On a build without FMA the
// scalar tier multiplies and subtracts exactly as the interpreter does, so
// it stays bit-identical there too. Fast-math operations are approximate
// by contract; each tier uses its best native approximation.
#pragma once

#include <cmath>
#include <cstdint>

#include "cpu/math_policy.hpp"

namespace ibchol::simd {

/// Portable vector of W lanes backed by a plain array. The fixed-trip lane
/// loops vectorize under any compiler ("omp simd" semantics without the
/// pragma dependency); with no ISA flags at all this degrades to scalar
/// code that still computes the exact same correctly-rounded IEEE results.
template <typename T, int W>
struct VecGeneric {
  using Elem = T;
  static constexpr int kWidth = W;

  struct V {
    T v[W];
  };

  static V load(const T* p) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(T* p, V x) {
    for (int l = 0; l < W; ++l) p[l] = x.v[l];
  }

  static V set1(T x) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = x;
    return r;
  }

  static V mul(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }

  /// c - a*b, rounded as the interpreter's `c -= a*b` is: once, matching
  /// the vfnmadd the optimizer contracts the interpreter's update loops
  /// into, when the build targets FMA; otherwise a multiply and a subtract,
  /// since std::fma is then a slow libm routine with a different rounding.
  static V fnmadd(V a, V b, V c) {
    V r;
#if defined(__FMA__)
    for (int l = 0; l < W; ++l) r.v[l] = std::fma(-a.v[l], b.v[l], c.v[l]);
#else
    for (int l = 0; l < W; ++l) r.v[l] = c.v[l] - a.v[l] * b.v[l];
#endif
    return r;
  }

  static V sqrt(V x) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = std::sqrt(x.v[l]);
    return r;
  }

  static V div(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }

  /// Lane mask (bit l set when x[l] > 0) for the pivot check.
  static std::uint32_t gt_zero_mask(V x) {
    std::uint32_t m = 0;
    for (int l = 0; l < W; ++l) {
      if (x.v[l] > T{0}) m |= 1u << l;
    }
    return m;
  }

  /// Fast-math square root / reciprocal: the scalar tier reuses the policy's
  /// bit-trick Newton sequences verbatim.
  static V fast_sqrt(V x) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = FastMath::sqrt(x.v[l]);
    return r;
  }
  static V fast_recip(V x) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = FastMath::recip(x.v[l]);
    return r;
  }
};

}  // namespace ibchol::simd
