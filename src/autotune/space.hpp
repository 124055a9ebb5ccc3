// Enumeration of the tuning-parameter search space (paper §II.D / §IV).
//
// The paper performs an *exhaustive* sweep — "our goal is not the minimal
// search time but rather meaningful exploration of the parameter
// configurations" — producing the 14,000-measurement dataset analyzed in
// §IV. enumerate_space generates exactly that grid for one matrix size.
#pragma once

#include <vector>

#include "kernels/variant.hpp"

namespace ibchol {

/// Controls which axes of the space are enumerated.
struct SpaceOptions {
  std::vector<int> tile_sizes = standard_tile_sizes();    ///< n_b (≤ n kept)
  std::vector<int> chunk_sizes = standard_chunk_sizes();  ///< chunked only
  bool include_non_chunked = true;
  /// Pack-scratch chunk sizes enumerated for the *non-chunked* layout (the
  /// CPU pipeline packs a simple-interleaved batch chunk-by-chunk into
  /// L2-sized scratch; chunk_size selects that scratch's lane count, so it
  /// is a live axis even without the chunked address map). Empty = the
  /// historical grid: one non-chunked point with chunk_size 0 (automatic
  /// sizing rule).
  std::vector<int> pack_chunk_sizes;
  bool include_fast_math = false;   ///< add the --use_fast_math variants
  bool include_cache_pref = false;  ///< add the L1-vs-shared carveout axis
  /// Executors to sweep. The paper's grid tunes one kernel implementation;
  /// on the CPU substrate the executor (and, for the vectorized one, the
  /// SIMD tier) is a sixth parameter of the space. Empty = the interpreter
  /// only (the historical grid's keys and factors, so existing sweep
  /// datasets stay comparable).
  std::vector<CpuExec> execs;
  /// ISA tiers enumerated for CpuExec::kVectorized entries in `execs`
  /// (ignored for the other executors). kAuto = the host's best tier.
  std::vector<SimdIsa> isas = {SimdIsa::kAuto};
  /// Storage precisions enumerated (the seventh axis). The default keeps
  /// the historical fp32-only grid; adding kBf16/kFp16 multiplies the
  /// space by the reduced-precision storage lanes.
  std::vector<StoragePrec> storage_precs = {StoragePrec::kFp32};
  /// Tiled large-N lane (the eighth axis, off by default so existing
  /// sweeps and journals stay byte-identical): at n > 64, appends
  /// exec = kAuto points whose nb comes from tiled::tiled_nb_candidates
  /// (the I/O-lower-bound cache-fit ladder) crossed with
  /// `tiled_lookaheads`. These points route through the task-parallel DAG
  /// executor; the classic small-n axes (looking/unroll/math) are pinned
  /// to their defaults since the tiled path does not read them. No effect
  /// at n ≤ 64.
  bool include_tiled = false;
  std::vector<int> tiled_lookaheads = {1, 2, 4};
};

/// All valid tuning points for an n×n batch. Tile sizes larger than n are
/// skipped (nb == n is kept as the "single tile" configuration when n ≤ 8).
[[nodiscard]] std::vector<TuningParams> enumerate_space(
    int n, const SpaceOptions& options = {});

/// The matrix sizes the paper's evaluation sweeps (2…64).
[[nodiscard]] std::vector<int> standard_sizes();

/// A reduced size list for quick runs (powers of two plus the paper's
/// featured sizes 24 and 48).
[[nodiscard]] std::vector<int> quick_sizes();

/// The matrix sizes of the tiled large-N lane (past the small-n
/// executors' n = 64 ceiling). Sweeps that set SpaceOptions::include_tiled
/// append these to their size list.
[[nodiscard]] std::vector<int> tiled_sizes();

}  // namespace ibchol
