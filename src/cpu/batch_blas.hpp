// Batched BLAS companions on interleaved layouts.
//
// cuBLAS, MKL and MAGMA pair their batched factorizations with batched
// Level-3 building blocks; this module provides the same companions for the
// interleaved layouts, processed one SIMD lane block at a time like the
// factorization itself:
//   * batch_trsm_left_lower   — X <- L^{-1} B  or  L^{-T} B (multi-RHS)
//   * batch_potrs             — X <- (L·Lᵀ)^{-1} B (multi-RHS solve)
//   * batch_syrk_lower        — C <- C - A·Aᵀ (lower triangle)
//   * batch_gemm_nt           — C <- C - A·Bᵀ
// Canonical layouts dispatch to the per-matrix reference routines.
//
// Operand layouts must be `compatible` (same scheme, chunk, batch) so a
// lane block addresses the same 32 matrices in every operand.
#pragma once

#include <span>

#include "kernels/options.hpp"
#include "layout/layout.hpp"
#include "layout/rect_layout.hpp"

namespace ibchol {

/// X <- L^{-1}·X (trans == false) or L^{-T}·X (trans == true), where L is
/// the lower triangle of each n×n matrix in `mats` and X is the matching
/// n×nrhs right-hand-side block in `rhs`. In-place on `rhs`.
template <typename T>
void batch_trsm_left_lower(const BatchLayout& mlayout, std::span<const T> mats,
                           const BatchRectLayout& rlayout, std::span<T> rhs,
                           bool trans, MathMode math = MathMode::kIeee,
                           int num_threads = 0,
                           Triangle triangle = Triangle::kLower);

/// Solves L·Lᵀ X = B for every matrix (multi-RHS POTRS): one parallel
/// pass in which each lane block (or canonical matrix) runs forward then
/// backward substitution. solve_batch_cpu is this with nrhs = 1.
template <typename T>
void batch_potrs(const BatchLayout& mlayout, std::span<const T> mats,
                 const BatchRectLayout& rlayout, std::span<T> rhs,
                 MathMode math = MathMode::kIeee, int num_threads = 0,
                 Triangle triangle = Triangle::kLower);

/// C <- C - A·Aᵀ, lower triangle only. C is the n×n batch `cs`; A is the
/// n×k batch `as`.
template <typename T>
void batch_syrk_lower(const BatchLayout& clayout, std::span<T> cs,
                      const BatchRectLayout& alayout, std::span<const T> as,
                      int num_threads = 0);

/// C <- C - A·Bᵀ. C is m×n, A is m×k, B is n×k (all rect batches).
template <typename T>
void batch_gemm_nt(const BatchRectLayout& clayout, std::span<T> cs,
                   const BatchRectLayout& alayout, std::span<const T> as,
                   const BatchRectLayout& blayout, std::span<const T> bs,
                   int num_threads = 0);

}  // namespace ibchol
