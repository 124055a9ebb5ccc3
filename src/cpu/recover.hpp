// Recovery-retry factorization: graceful degradation for failure-prone
// batches.
//
// A production batch pipeline (ALS, Kalman, block-Jacobi) feeds thousands of
// heterogeneous matrices through one factorization call; any member may be
// numerically non-SPD (round-off, a degenerate system) or outright corrupt
// (NaN/Inf from an upstream bug). The plain driver reports such members via
// `info` and leaves NaNs behind; this module adds the recovery path:
//
//  1. **Screening** — inputs are scanned for NaN/Inf before factoring and
//     reported with the distinct `kInfoNonFinite` code; their contents are
//     handed back exactly as supplied (a shift cannot repair a NaN).
//  2. **Shifted retry** — matrices that fail with a non-positive pivot are
//     gathered out of the interleaved layout into a compact retry sub-batch,
//     an escalating diagonal shift `shift0 · growth^attempt` (optionally
//     scaled by each matrix's mean |diagonal|, GPyTorch-style psd-safe
//     Cholesky) is applied, and only that sub-batch is refactored. Factors
//     of recovered matrices are scattered back and their `info` reset to 0.
//  3. **Graceful degradation** — matrices that were healthy are never
//     perturbed (bit-identical to a plain factorization); matrices that
//     exhaust every attempt keep their original failure code.
//
// The gather step needs no pristine copy of the batch: the factorization
// writes only the factored triangle, so each failed matrix is rebuilt from
// its untouched mirror triangle plus a pre-saved copy of its diagonal
// (inputs must be symmetric, which Cholesky assumes anyway).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "kernels/tile_program.hpp"
#include "layout/layout.hpp"

namespace ibchol {

/// Per-matrix `info` code for inputs rejected by the NaN/Inf screen,
/// distinct from 0 (success) and the 1-based failing pivot column.
inline constexpr std::int32_t kInfoNonFinite = -1;

/// Shift schedule for the retry pass. Attempt a (1-based) applies
/// `shift0 · growth^(a-1)`, scaled by the matrix's mean |diagonal| when
/// `relative` is set (so one schedule serves batches of any magnitude).
struct RecoveryOptions {
  double shift0 = 1e-6;  ///< first attempt's shift
  double growth = 10.0;  ///< escalation factor per attempt
  int max_attempts = 8;  ///< shifted refactorizations before giving up
  bool relative = true;  ///< scale shifts by mean |diag| of each matrix
};

/// Outcome for one matrix that needed recovery.
struct MatrixRecovery {
  std::int64_t index = 0;      ///< batch index
  std::int32_t first_info = 0; ///< initial failure: kInfoNonFinite or column
  int attempts = 0;            ///< shifted retries consumed
  double shift = 0.0;          ///< final (absolute) shift; 0 if none applied
  bool recovered = false;      ///< factor now valid (with `shift` added)
};

/// Aggregate outcome of factor_batch_recover.
struct RecoveryReport {
  std::int64_t nonfinite = 0;      ///< screened out (never retried)
  std::int64_t failed = 0;         ///< non-SPD failures in the first pass
  std::int64_t recovered = 0;      ///< repaired by a shifted retry
  std::int64_t unrecoverable = 0;  ///< nonfinite + retries exhausted
  /// One entry per matrix that screened out or failed, ascending index.
  std::vector<MatrixRecovery> matrices;

  [[nodiscard]] bool all_recovered() const { return unrecoverable == 0; }
};

/// Scans the factored triangle (the elements the factorization will read)
/// of every matrix for NaN/Inf and writes `kInfoNonFinite` into `info` for
/// offenders; other entries of `info` are left untouched. Returns the
/// number of non-finite matrices. `info` must have batch() entries.
template <typename T>
std::int64_t screen_nonfinite(const BatchLayout& layout,
                              std::span<const T> data, Triangle triangle,
                              std::span<std::int32_t> info);

/// screen_nonfinite for a reduced-precision batch: the NaN/Inf test runs at
/// the bit level on the 16-bit words (exponent field all-ones), so no fp32
/// widening pass is needed to screen. Interleaved layouts only.
std::int64_t screen_nonfinite_mixed(const BatchLayout& layout,
                                    std::span<const std::uint16_t> data,
                                    StoragePrec storage, Triangle triangle,
                                    std::span<std::int32_t> info);

/// Factors the batch in place like factor_batch_cpu, then recovers failed
/// matrices per `recovery` (see the file comment). `info`, when non-empty,
/// receives the final per-matrix status: 0 (possibly after recovery),
/// kInfoNonFinite, or the failing column for unrecoverable matrices.
/// `program`, when non-null, is used for interleaved partial-unroll
/// factorizations (the caller's prebuilt tile program, as in
/// factor_batch_cpu_with_program).
template <typename T>
RecoveryReport factor_batch_recover(const BatchLayout& layout,
                                    std::span<T> data,
                                    const CpuFactorOptions& options,
                                    const RecoveryOptions& recovery,
                                    std::span<std::int32_t> info = {},
                                    const TileProgram* program = nullptr);

/// Pluggable factorization pass for the recovery driver: invoked for the
/// first whole-batch pass and for every shifted-retry sub-batch, with the
/// same contract as factor_batch_cpu(_with_program). It has two users:
/// factor_batch_recover's default pass (the plain driver) and
/// BatchCholesky::factorize_recover, which supplies its own route so
/// recovery factors wherever factorize() does. `ctx` is the caller's
/// closure state (a function pointer + void* rather than std::function
/// keeps the recovery path allocation-free and lets higher layers plug in
/// without this layer depending on them).
template <typename T>
using RecoverFactorFn = FactorResult (*)(void* ctx, const BatchLayout& layout,
                                         std::span<T> data,
                                         const CpuFactorOptions& options,
                                         const TileProgram* program,
                                         std::span<std::int32_t> info);

/// factor_batch_recover with every factorization pass routed through
/// `factor_fn` instead of the built-in OpenMP driver. factor_batch_recover
/// is this with the plain driver plugged in. The screen and diagonal save
/// run on an OpenMP team of options.num_threads (0 = the default), capped
/// at the number of chunks (or canonical matrices) they split.
template <typename T>
RecoveryReport factor_batch_recover_via(RecoverFactorFn<T> factor_fn,
                                        void* ctx, const BatchLayout& layout,
                                        std::span<T> data,
                                        const CpuFactorOptions& options,
                                        const RecoveryOptions& recovery,
                                        std::span<std::int32_t> info = {},
                                        const TileProgram* program = nullptr);

/// factor_batch_recover for a reduced-precision batch (bf16/fp16 words in
/// `storage` format; interleaved layouts only). Recovery is a cold path,
/// so the whole batch is widened once into fp32 scratch, the full fp32
/// screen/factor/shifted-retry machinery runs there (the shift schedule
/// operates on fp32 values, exactly as the mixed pipeline's compute does),
/// and the result — recovered factors, preserved non-finite inputs, NaN
/// residue of unrecoverable matrices — is narrowed back RN-even.
RecoveryReport factor_batch_recover_mixed(const BatchLayout& layout,
                                          std::span<std::uint16_t> data,
                                          StoragePrec storage,
                                          const CpuFactorOptions& options,
                                          const RecoveryOptions& recovery,
                                          std::span<std::int32_t> info = {},
                                          const TileProgram* program = nullptr);

}  // namespace ibchol
