// Batched Cholesky factorization drivers for the CPU substrate.
//
// Dispatches a whole batch across OpenMP workers: canonical layouts factor
// one matrix per task with the blocked reference routine (the "traditional"
// structure — one thread block per matrix on the GPU); interleaved layouts
// factor one lane block (32 matrices) per task with the tile-program
// executor (the paper's interleaved kernels — one warp per 32 matrices).
#pragma once

#include <cstdint>
#include <span>

#include "kernels/options.hpp"
#include "kernels/tile_program.hpp"
#include "layout/layout.hpp"

namespace ibchol {

/// Kernel configuration for the CPU substrate.
struct CpuFactorOptions {
  int nb = 8;                          ///< tile size (clamped to n)
  Looking looking = Looking::kTop;     ///< evaluation order
  Unroll unroll = Unroll::kPartial;    ///< full = whole-matrix registerized
  MathMode math = MathMode::kIeee;
  Triangle triangle = Triangle::kLower;  ///< which factor to produce
  /// Tile-program execution mode for interleaved layouts: the op-by-op
  /// interpreter (the default and the correctness oracle), the vectorized
  /// executor (explicit SIMD intrinsics with cpuid runtime dispatch), or
  /// kAuto (the measured per-(n, tier) choice between the two). Under IEEE
  /// math both produce bit-identical factors.
  CpuExec exec = CpuExec::kInterpreter;
  /// ISA tier for exec == kVectorized (ignored otherwise). kAuto picks the
  /// best tier the host supports; explicit requests are clamped to the
  /// detected tier. IBCHOL_SIMD_ISA in the environment overrides kAuto.
  SimdIsa isa = SimdIsa::kAuto;
  /// Chunk size (in matrices) of the chunk-resident pipeline when the
  /// layout is simple interleaved: the pipeline packs this many lanes at a
  /// time into L2-sized scratch and factors them while hot. 0 = the sizing
  /// rule of chunk_scratch_lanes(); must otherwise be a positive multiple
  /// of kLaneBlock. Ignored for chunked layouts (the layout's own chunk is
  /// already resident) and for the canonical path.
  int chunk_size = 0;
  int num_threads = 0;                 ///< 0 = OpenMP default
};

/// Aggregate outcome of one batched factorization.
struct FactorResult {
  std::int64_t failed_count = 0;  ///< matrices with a non-positive pivot
  std::int64_t first_failed = -1; ///< smallest failing matrix index, or -1

  [[nodiscard]] bool ok() const { return failed_count == 0; }
};

/// Builds a FactorResult from reduction-local counters. The parallel
/// drivers track the first failing index with a "not seen yet" sentinel of
/// std::numeric_limits<int64_t>::max() (the identity of their min
/// reductions); this is the single place that sentinel is mapped back to
/// the public -1 convention, so it can never leak to callers — both the
/// canonical and the interleaved paths funnel through here.
[[nodiscard]] FactorResult finalize_factor_result(std::int64_t failed,
                                                  std::int64_t first_failed);

/// Factors every matrix of the batch in place (lower triangle holds L).
///
/// `info`, when non-empty, must have at least layout.batch() entries and
/// receives per-matrix status: 0 on success or the 1-based column of the
/// first non-positive pivot (LAPACK convention). Failed matrices contain
/// NaNs past the failing column; all other matrices are unaffected.
template <typename T>
FactorResult factor_batch_cpu(const BatchLayout& layout, std::span<T> data,
                              const CpuFactorOptions& options,
                              std::span<std::int32_t> info = {});

/// As above but with a caller-supplied tile program (autotuning sweeps
/// rebuild layouts, not programs). The program's n must equal layout.n();
/// used only for interleaved layouts with partial unrolling.
template <typename T>
FactorResult factor_batch_cpu_with_program(const BatchLayout& layout,
                                           std::span<T> data,
                                           const TileProgram& program,
                                           const CpuFactorOptions& options,
                                           std::span<std::int32_t> info = {});

/// Factors a reduced-precision batch: `data` holds layout.size_elems()
/// 16-bit words in `storage` format (kBf16 or kFp16 — kFp32 is rejected;
/// use factor_batch_cpu). The chunk pipeline widens each chunk into fp32
/// scratch, runs the unchanged fp32 compute body, and narrows the factor
/// back RN-even, so arithmetic is bit-identical to the fp32 executors and
/// only the stored operands round. Interleaved layouts only. The storage
/// rounding perturbs A by up to one half-ulp per element, so expect
/// occasional positive info codes near-singular fp32 would survive —
/// factor_batch_recover_mixed / refine self-healing handle those.
FactorResult factor_batch_cpu_mixed(const BatchLayout& layout,
                                    std::span<std::uint16_t> data,
                                    StoragePrec storage,
                                    const CpuFactorOptions& options,
                                    std::span<std::int32_t> info = {});

/// As above with a caller-supplied tile program (partial unrolling).
FactorResult factor_batch_cpu_mixed_with_program(
    const BatchLayout& layout, std::span<std::uint16_t> data,
    StoragePrec storage, const TileProgram& program,
    const CpuFactorOptions& options, std::span<std::int32_t> info = {});

}  // namespace ibchol
