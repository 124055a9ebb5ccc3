// The paper's five-dimensional tuning space (plus the compile-mode and
// cache-carveout switches that appear in the evaluation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/options.hpp"

namespace ibchol {

/// One point of the kernel tuning space (paper §II.D):
///  1. tile size n_b,
///  2. looking order (right / left / top),
///  3. chunking (simple interleaved vs chunked interleaved layout),
///  4. chunk size (also the thread-block size; multiples of 32),
///  5. unrolling (tile ops only vs the whole factorization),
/// plus the IEEE/--use_fast_math switch and the L1-vs-shared carveout
/// (a Table I variable with next to no effect on these kernels — they use
/// no shared memory).
struct TuningParams {
  int nb = 8;
  Looking looking = Looking::kTop;
  bool chunked = true;
  int chunk_size = 64;
  Unroll unroll = Unroll::kPartial;
  MathMode math = MathMode::kIeee;
  bool prefer_shared = false;  ///< carveout: false = prefer L1
  /// CPU-substrate execution mode (not a paper tuning axis): the op-by-op
  /// interpreter (default; also the correctness oracle), explicit-SIMD
  /// vectorized kernels, or kAuto's measured per-(n, tier) choice. Model
  /// evaluators ignore it; measured evaluators honor it.
  CpuExec exec = CpuExec::kInterpreter;
  /// ISA tier of the vectorized executor (the sweep's sixth parameter —
  /// vector width). kAuto picks the widest tier the host supports via
  /// runtime cpuid dispatch; explicit tiers force a narrower body (clamped
  /// to what the host offers). Ignored unless exec == kVectorized.
  SimdIsa isa = SimdIsa::kAuto;
  /// Storage precision of the batch (the seventh parameter): fp32 is the
  /// classic path; kBf16/kFp16 hold matrices as 16-bit words and stage
  /// units through fp32 pack scratch (factor_batch_cpu_mixed), halving
  /// memory traffic at the cost of rounded storage. Only interleaved
  /// layouts support the reduced precisions.
  StoragePrec storage = StoragePrec::kFp32;
  /// Panel-lookahead depth of the tiled large-N path (the eighth
  /// parameter): how many steps the trailing update wavefront may run
  /// ahead of the last factored panel. Only the tiled DAG executor reads
  /// it (n > 64 routed through svc::BatchService::factor_tiled); it is
  /// order-preserving there, so a perf-only axis. The small-n executors
  /// ignore it.
  int lookahead = 2;

  /// Validates against a matrix dimension; throws ibchol::Error.
  void validate(int n) const;

  /// Effective tile size for dimension n (nb clamped to n).
  [[nodiscard]] int effective_nb(int n) const { return nb < n ? nb : n; }

  /// Thread-block size implied by the layout: the chunk size for chunked
  /// kernels (paper: "this parameter also defines the number of threads in
  /// a thread block"); simple interleaved kernels use a fixed 128-thread
  /// block.
  [[nodiscard]] int threads_per_block() const {
    return chunked ? chunk_size : 128;
  }

  [[nodiscard]] std::string to_string() const;

  /// Compact key such as "nb4_top_c64_full_ieee_l1" (stable, CSV-safe).
  [[nodiscard]] std::string key() const;

  [[nodiscard]] bool operator==(const TuningParams&) const = default;
};

/// The chunk sizes the paper sweeps (Fig 18).
[[nodiscard]] const std::vector<int>& standard_chunk_sizes();

/// The tile sizes the paper sweeps (Fig 15: n_b = 1…8).
[[nodiscard]] const std::vector<int>& standard_tile_sizes();

}  // namespace ibchol
