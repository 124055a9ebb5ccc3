// Public interface of the vectorized (explicit-SIMD) tile executor.
//
// The production executor, beside the interpreter oracle:
// every tile op runs as intrinsic lane-block bodies written against the
// vec traits (vec.hpp / vec_avx2.hpp / vec_avx512.hpp). Each ISA tier is
// compiled in its own translation unit with per-file -m flags — never by
// flipping -march for the whole build — and exposed through one table of
// function pointers; the driver picks the table with cpuid-based runtime
// dispatch (cpu/simd/isa.hpp), so a single binary carries all tiers and
// runs correctly on hosts without AVX-512 (or without AVX at all).
//
// Numerics: on the IEEE math policy every tier computes bit-identical
// factors — identical to each other and to the interpreter oracle — since
// sqrt/div/fma are correctly rounded everywhere and the op order matches
// the interpreter exactly. The fast-math policy maps to each tier's native
// approximation (hardware rsqrt/rcp + one Newton step on AVX tiers, the
// interpreter's bit-trick sequences on the scalar tier) and is only
// guaranteed to agree within a few ulp.
#pragma once

#include <cstdint>

#include "cpu/tile_exec.hpp"
#include "kernels/options.hpp"
#include "kernels/tile_program.hpp"

namespace ibchol {

/// Largest n with a fully unrolled fused vectorized kernel (the whole
/// factorization as one compile-time-n function, active column held in
/// vector registers).
inline constexpr int kMaxVecFusedDim = 16;

/// Largest n the runtime-n vectorized whole-matrix body supports (the
/// paper sweeps n <= 64); larger n falls back to the interpreter's
/// scratch-triangle path.
inline constexpr int kMaxVecWholeDim = 64;

/// One ISA tier's executor entry points. All bodies share the lane-block
/// contract of execute_program_lane_block: element (i,j) of lane l lives at
/// base[(j*n + i)*estride + l], `info` has kLaneBlock pre-zeroed entries or
/// is null. `base` must be 64-byte aligned and estride*sizeof(T) a multiple
/// of 64 (guaranteed by AlignedBuffer + the layouts; asserted by the
/// driver).
template <typename T>
struct VecKernels {
  /// The tier these bodies were compiled for (the avx2/avx512 tables decay
  /// to the scalar tier when the compiler could not build their TU's ISA).
  SimdIsa tier;
  /// Vector width in elements of T.
  int width;

  /// Op-by-op execution of a bound tile program.
  void (*run_program)(const TileProgram& program, MathMode math, T* base,
                      std::int64_t estride, std::int32_t* info,
                      Triangle triangle);

  /// Runtime-n whole-matrix factorization, left-looking and in place (one
  /// aligned load/store per element plus the panel re-reads; no scratch).
  /// Returns false when n > kMaxVecWholeDim (caller falls back).
  bool (*whole_matrix)(int n, MathMode math, T* base, std::int64_t estride,
                       std::int32_t* info, Triangle triangle);

  /// Fully unrolled fused kernel with compile-time n; the active column
  /// pair of lane groups lives in vector registers. Returns false when
  /// n > kMaxVecFusedDim (caller falls back to whole_matrix).
  bool (*fused)(int n, MathMode math, T* base, std::int64_t estride,
                std::int32_t* info, Triangle triangle);

  /// Cache-blocked variant of whole_matrix: the trailing update is applied
  /// panel by panel (kVecPanelWidth columns at a time) with a register-tiled
  /// gemm sweep, so each k-column of the lane block is streamed through the
  /// caches once per panel instead of once per column. Bit-identical to
  /// whole_matrix on the IEEE policy (per element the fnmadd sequence stays
  /// k = 0..j-1 in order; only the phase boundaries move). Wins once the
  /// lane-block working set outgrows L1 (n >= ~24 in single precision);
  /// below that the unblocked body is faster. Returns false when
  /// n > kMaxVecWholeDim.
  bool (*blocked)(int n, MathMode math, T* base, std::int64_t estride,
                  std::int32_t* info, Triangle triangle);
};

/// Panel width / row-strip height of the blocked whole-matrix body (PB x IB
/// register accumulator tile of vector groups; 4x4 saturates the 32
/// architectural vectors of AVX-512 and measured fastest at n >= 32).
inline constexpr int kVecPanelWidth = 4;
inline constexpr int kVecPanelRows = 4;

/// Per-tier tables (defined in vec_exec_scalar/avx2/avx512.cpp).
template <typename T>
[[nodiscard]] const VecKernels<T>& vec_kernels_scalar();
template <typename T>
[[nodiscard]] const VecKernels<T>& vec_kernels_avx2();
template <typename T>
[[nodiscard]] const VecKernels<T>& vec_kernels_avx512();

/// Table for a tier; kAuto (or an unsupported request) resolves through
/// resolve_simd_isa() first, so callers may pass options.isa directly.
template <typename T>
[[nodiscard]] const VecKernels<T>& vec_kernels(SimdIsa tier);

}  // namespace ibchol
