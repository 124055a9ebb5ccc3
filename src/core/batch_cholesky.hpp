// Public API: batched Cholesky factorization with interleaved layouts.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto layout = BatchLayout::interleaved_chunked(n, batch, 64);
//   AlignedBuffer<float> data(layout.size_elems());
//   ... fill `data` via layout.index(b, i, j) or convert_layout(...) ...
//   BatchCholesky chol(layout, recommended_params(n));
//   auto result = chol.factorize<float>(data.span());   // A -> L in place
//   chol.solve<float>(data.span(), vlayout, rhs.span()); // L·Lᵀx = b
//
// The factorization overwrites each matrix's lower triangle with its
// Cholesky factor. Non-SPD matrices are reported per matrix (LAPACK info
// convention) without disturbing the rest of the batch.
#pragma once

#include <optional>
#include <span>

#include "cpu/batch_blas.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/batch_solve.hpp"
#include "cpu/recover.hpp"
#include "kernels/tile_program.hpp"
#include "kernels/variant.hpp"
#include "layout/layout.hpp"
#include "layout/vector_layout.hpp"

namespace ibchol {

/// Tuning defaults following the paper's conclusions (§III): full unrolling
/// while the matrix fits in registers (n ≲ 20), then the top-looking tiled
/// kernel with n_b = 8; chunked layout with chunk 64 throughout.
[[nodiscard]] TuningParams recommended_params(int n);

/// Batched Cholesky factorization engine bound to one layout + tuning
/// configuration. Thread-safe for concurrent factorize calls on disjoint
/// data.
class BatchCholesky {
 public:
  /// Validates the configuration against the layout. The layout's chunk
  /// size must match the tuning parameters' chunking choice; use
  /// make_layout() to derive a consistent layout from the parameters.
  /// `triangle` selects A = L·Lᵀ (default) or A = Uᵀ·U.
  BatchCholesky(BatchLayout layout, TuningParams params,
                Triangle triangle = Triangle::kLower);

  /// Derives the layout implied by tuning parameters for a given shape:
  /// chunked -> interleaved_chunked(chunk_size), else simple interleaved.
  [[nodiscard]] static BatchLayout make_layout(int n, std::int64_t batch,
                                               const TuningParams& params);

  /// Factors every matrix in place. `info` (optional) receives per-matrix
  /// status, 0 or the 1-based failing column.
  template <typename T>
  FactorResult factorize(std::span<T> data,
                         std::span<std::int32_t> info = {}) const;

  /// Resilient factorization: like factorize(), then recovers failed
  /// matrices. NaN/Inf inputs are screened out (info = kInfoNonFinite,
  /// contents returned untouched) and non-SPD members are refactored in a
  /// compact sub-batch under escalating diagonal shifts until they succeed
  /// or `recovery.max_attempts` is exhausted; healthy matrices come out
  /// bit-identical to factorize(). The first pass and every retry run on
  /// factorize()'s own route (the tiled DAG when uses_tiled()), handed to
  /// factor_batch_recover_via as its pass. See src/cpu/recover.hpp.
  template <typename T>
  RecoveryReport factorize_recover(std::span<T> data,
                                   const RecoveryOptions& recovery = {},
                                   std::span<std::int32_t> info = {}) const;

  /// factorize() for a reduced-precision batch: `data` holds the matrices
  /// as 16-bit words in params().storage format (which must be kBf16 or
  /// kFp16), arithmetic accumulates in fp32 (factor_batch_cpu_mixed).
  FactorResult factorize_mixed(std::span<std::uint16_t> data,
                               std::span<std::int32_t> info = {}) const;

  /// factorize_recover() for a reduced-precision batch: widen → fp32
  /// screen/factor/shifted-retry → narrow (factor_batch_recover_mixed).
  RecoveryReport factorize_recover_mixed(
      std::span<std::uint16_t> data, const RecoveryOptions& recovery = {},
      std::span<std::int32_t> info = {}) const;

  /// Solves L·Lᵀ x = b for every matrix after factorize(); `rhs` is
  /// overwritten with the solutions. The vector layout must match
  /// (BatchVectorLayout::matching(layout())).
  ///
  /// `info`, when non-empty, must be the per-matrix status from
  /// factorize()/factorize_recover(): matrices with info != 0 are skipped —
  /// their rhs entries are left exactly as supplied instead of being
  /// overwritten with the NaN garbage a failed factor back-substitutes.
  template <typename T>
  void solve(std::span<const T> factored, const BatchVectorLayout& vlayout,
             std::span<T> rhs,
             std::span<const std::int32_t> info = {}) const;

  /// Multi-right-hand-side solve: `rhs` is an n×nrhs block per matrix in a
  /// compatible rectangular layout (BatchRectLayout::matching(layout(),
  /// n, nrhs)). Overwritten with the solutions. `info` skips failed
  /// matrices exactly as in solve().
  template <typename T>
  void solve_multi(std::span<const T> factored,
                   const BatchRectLayout& rlayout, std::span<T> rhs,
                   std::span<const std::int32_t> info = {}) const;

  [[nodiscard]] const BatchLayout& layout() const { return layout_; }
  [[nodiscard]] const TuningParams& params() const { return params_; }
  [[nodiscard]] Triangle triangle() const { return triangle_; }

  /// The tile program this configuration executes (empty for full
  /// unrolling, which uses the whole-matrix registerized path, and for
  /// configurations routed to the tiled large-N path).
  [[nodiscard]] const std::optional<TileProgram>& program() const {
    return program_;
  }

  /// True when factorize() routes through the tiled task-parallel DAG
  /// executor (n > 64, exec = kAuto, lower triangle, fp32 storage): the
  /// small-n executors stop at n = 64, so past it the facade hands whole
  /// matrices to svc::BatchService::factor_tiled instead of silently
  /// falling back to the interpreter's scalar path.
  [[nodiscard]] bool uses_tiled() const { return use_tiled_; }

 private:
  /// factorize() minus the observer timing wrapper: the tiled or
  /// synchronous route chosen at construction, run over `layout` —
  /// layout() for factorize(), or a recovery retry's compact sub-batch.
  template <typename T>
  FactorResult factorize_dispatch(const BatchLayout& layout,
                                  std::span<T> data,
                                  std::span<std::int32_t> info) const;

  BatchLayout layout_;
  TuningParams params_;
  Triangle triangle_ = Triangle::kLower;
  std::optional<TileProgram> program_;
  bool use_tiled_ = false;
};

/// One-shot convenience: derive the layout from the params, factor `data`.
template <typename T>
FactorResult factorize_batch(int n, std::int64_t batch,
                             const TuningParams& params, std::span<T> data,
                             std::span<std::int32_t> info = {});

}  // namespace ibchol
