// Batched triangular solves (POTRS) on the CPU substrate.
//
// After factor_batch_cpu has overwritten each matrix's lower triangle with
// its Cholesky factor L, these routines solve L·Lᵀ x = b for one right-hand
// side per matrix, in the layout-matched vector batch. The solve is
// batch_potrs (cpu/batch_blas.hpp) with one right-hand-side column:
// interleaved layouts are processed one SIMD lane block at a time, exactly
// like the factorization.
#pragma once

#include <span>

#include "kernels/options.hpp"
#include "layout/layout.hpp"
#include "layout/vector_layout.hpp"

namespace ibchol {

/// Solves L·Lᵀ x = b in place for every matrix of the batch. `mats` holds
/// the factored batch (layout `mlayout`), `rhs` the right-hand sides in the
/// matching vector layout; on return `rhs` holds the solutions.
/// The vector layout must match the matrix layout's kind, chunk and batch.
template <typename T>
void solve_batch_cpu(const BatchLayout& mlayout, std::span<const T> mats,
                     const BatchVectorLayout& vlayout, std::span<T> rhs,
                     MathMode math = MathMode::kIeee, int num_threads = 0,
                     Triangle triangle = Triangle::kLower);

/// Log-determinants from the factored batch: out[b] = log det A_b =
/// 2·Σ_i log L_b[i,i], accumulated in double. `out` needs batch() entries.
/// Matrices whose factorization failed (non-positive diagonal) receive NaN.
template <typename T>
void batch_logdet(const BatchLayout& mlayout, std::span<const T> factors,
                  std::span<double> out, int num_threads = 0);

}  // namespace ibchol
