// Shared OpenMP thread-count resolution for the CPU substrate drivers.
//
// Every batched driver accepts `num_threads = 0` to mean "the OpenMP
// default"; this helper is the single place that rule lives (it used to be
// duplicated per translation unit).
#pragma once

#include <omp.h>

#include <cstdint>

namespace ibchol {

/// The process's default worker count, resolved from the OpenMP runtime
/// exactly once (first call) and cached. The runtime answer cannot change
/// after startup in this codebase (nothing calls omp_set_num_threads), and
/// resolving it per factorization call made every driver invocation pay a
/// libgomp query on its hot path; the persistent service additionally
/// freezes its pool size from this value for its whole lifetime.
inline int cached_default_threads() {
  static const int count = omp_get_max_threads();
  return count;
}

/// Resolves a requested thread count: positive values are taken verbatim,
/// zero (and negatives) fall back to the cached OpenMP default.
inline int resolve_threads(int requested) {
  return requested > 0 ? requested : cached_default_threads();
}

/// resolve_threads capped at a loop's iteration count. A team larger than
/// the work it splits only wakes threads that find nothing to do; those
/// then spin-wait for the next parallel region, taking cores from the
/// service pool (where the facade's tiled route runs) meanwhile.
inline int resolve_threads(int requested, std::int64_t iterations) {
  const int nt = resolve_threads(requested);
  return iterations < nt ? static_cast<int>(iterations > 1 ? iterations : 1)
                         : nt;
}

}  // namespace ibchol
