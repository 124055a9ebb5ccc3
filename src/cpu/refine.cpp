#include "cpu/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cpu/batch_solve.hpp"
#include "cpu/simd/convert.hpp"
#include "cpu/thread_util.hpp"
#include "layout/convert.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"

namespace ibchol {

namespace {

// r[b] = rhs[b] - A[b]·x[b], accumulated in double; returns into `r`
// (float storage). Also tracks the max |x| per matrix for the relative
// correction norm.
void residual(const BatchLayout& mlayout, std::span<const float> originals,
              const BatchVectorLayout& vlayout, std::span<const float> rhs,
              std::span<const float> x, std::span<float> r, int num_threads) {
  const int n = mlayout.n();
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::int64_t b = 0; b < mlayout.batch(); ++b) {
    for (int i = 0; i < n; ++i) {
      double acc = static_cast<double>(rhs[vlayout.index(b, i)]);
      for (int j = 0; j < n; ++j) {
        // Symmetric matrix, lower triangle stored.
        const float aij = i >= j ? originals[mlayout.index(b, i, j)]
                                 : originals[mlayout.index(b, j, i)];
        acc -= static_cast<double>(aij) *
               static_cast<double>(x[vlayout.index(b, j)]);
      }
      r[vlayout.index(b, i)] = static_cast<float>(acc);
    }
  }
}

// Per-matrix-converged refinement over fp32 factors: like the global loop
// below, but each matrix freezes as soon as its own relative correction
// drops under the tolerance (one stalled matrix must not keep iterating —
// or fail — the whole batch). `info`, when non-empty, gets 0 / stalled.
MixedRefineResult refine_per_matrix(const BatchLayout& mlayout,
                                    std::span<const float> originals,
                                    std::span<const float> factors,
                                    const BatchVectorLayout& vlayout,
                                    std::span<const float> b,
                                    std::span<float> x,
                                    std::span<std::int32_t> info,
                                    const RefineOptions& options) {
  const int nt = resolve_threads(options.num_threads);
  const int n = mlayout.n();
  const std::int64_t batch = mlayout.batch();

  std::copy(b.begin(), b.end(), x.begin());
  solve_batch_cpu<float>(mlayout, factors, vlayout, x, options.math, nt);

  AlignedBuffer<float> d(vlayout.size_elems());
  std::vector<std::uint8_t> done(static_cast<std::size_t>(batch), 0);
  std::vector<double> last_rel(static_cast<std::size_t>(batch),
                               std::numeric_limits<double>::infinity());
  MixedRefineResult result;
  std::int64_t remaining = batch;
  for (int it = 0; it < options.max_iterations && remaining > 0; ++it) {
    residual(mlayout, originals, vlayout, b, std::span<const float>(x),
             d.span(), nt);
    solve_batch_cpu<float>(mlayout, factors, vlayout, d.span(), options.math,
                           nt);
    std::int64_t newly = 0;
#pragma omp parallel for schedule(static) num_threads(nt) \
    reduction(+ : newly)
    for (std::int64_t bm = 0; bm < batch; ++bm) {
      if (done[static_cast<std::size_t>(bm)]) continue;
      double xmax = 0.0, dmax = 0.0;
      for (int i = 0; i < n; ++i) {
        xmax = std::max(
            xmax, std::abs(static_cast<double>(x[vlayout.index(bm, i)])));
        dmax = std::max(
            dmax, std::abs(static_cast<double>(d[vlayout.index(bm, i)])));
      }
      for (int i = 0; i < n; ++i) {
        x[vlayout.index(bm, i)] += d[vlayout.index(bm, i)];
      }
      // NaN corrections (poisoned factor) compare false and stay stalled.
      const double rel = dmax == 0.0 ? 0.0 : dmax / std::max(xmax, 1e-300);
      last_rel[static_cast<std::size_t>(bm)] = rel;
      if (rel < options.tolerance) {
        done[static_cast<std::size_t>(bm)] = 1;
        ++newly;
      }
    }
    remaining -= newly;
    result.iterations = it + 1;
  }
  for (std::int64_t bm = 0; bm < batch; ++bm) {
    const bool ok = done[static_cast<std::size_t>(bm)] != 0;
    if (!ok) {
      result.final_correction = std::max(
          result.final_correction, last_rel[static_cast<std::size_t>(bm)]);
    }
    if (!info.empty()) info[bm] = ok ? 0 : kInfoRefineStalled;
  }
  result.stalled = remaining;
  result.converged = remaining == 0;
  return result;
}

}  // namespace

RefineResult refine_batch_solve(const BatchLayout& mlayout,
                                std::span<const float> originals,
                                std::span<const float> factors,
                                const BatchVectorLayout& vlayout,
                                std::span<const float> b, std::span<float> x,
                                const RefineOptions& options) {
  IBCHOL_CHECK(originals.size() >= mlayout.size_elems() &&
                   factors.size() >= mlayout.size_elems(),
               "matrix spans too small");
  IBCHOL_CHECK(b.size() >= vlayout.size_elems() &&
                   x.size() >= vlayout.size_elems(),
               "vector spans too small");
  IBCHOL_CHECK(vlayout == BatchVectorLayout::matching(mlayout),
               "vector layout does not match the matrix layout");
  const int nt = resolve_threads(options.num_threads);
  const int n = mlayout.n();

  // Initial solve: x = (L·Lᵀ)^{-1} b.
  std::copy(b.begin(), b.end(), x.begin());
  solve_batch_cpu<float>(mlayout, factors, vlayout, x, options.math, nt);

  AlignedBuffer<float> d(vlayout.size_elems());
  RefineResult result;
  for (int it = 0; it < options.max_iterations; ++it) {
    // d = (L·Lᵀ)^{-1} (b - A x), then x += d.
    residual(mlayout, originals, vlayout, b, std::span<const float>(x),
             d.span(), nt);
    solve_batch_cpu<float>(mlayout, std::span<const float>(factors), vlayout,
                           d.span(), options.math, nt);
    double max_rel = 0.0;
#pragma omp parallel for schedule(static) num_threads(nt) \
    reduction(max : max_rel)
    for (std::int64_t bm = 0; bm < mlayout.batch(); ++bm) {
      double xmax = 0.0, dmax = 0.0;
      for (int i = 0; i < n; ++i) {
        xmax = std::max(xmax,
                        std::abs(static_cast<double>(x[vlayout.index(bm, i)])));
        dmax = std::max(
            dmax, std::abs(static_cast<double>(d[vlayout.index(bm, i)])));
      }
      for (int i = 0; i < n; ++i) {
        x[vlayout.index(bm, i)] += d[vlayout.index(bm, i)];
      }
      if (xmax > 0.0) max_rel = std::max(max_rel, dmax / xmax);
    }
    result.iterations = it + 1;
    result.final_correction = max_rel;
    if (max_rel < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

MixedRefineResult refine_batch_solve_mixed(
    const BatchLayout& mlayout, std::span<const float> originals,
    std::span<const std::uint16_t> factors, StoragePrec storage,
    const BatchVectorLayout& vlayout, std::span<const float> b,
    std::span<float> x, std::span<std::int32_t> info,
    const RefineOptions& options) {
  IBCHOL_CHECK(storage != StoragePrec::kFp32,
               "mixed refinement is for reduced storage precisions");
  IBCHOL_CHECK(originals.size() >= mlayout.size_elems() &&
                   factors.size() >= mlayout.size_elems(),
               "matrix spans too small");
  IBCHOL_CHECK(b.size() >= vlayout.size_elems() &&
                   x.size() >= vlayout.size_elems(),
               "vector spans too small");
  IBCHOL_CHECK(vlayout == BatchVectorLayout::matching(mlayout),
               "vector layout does not match the matrix layout");
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(mlayout.batch()),
               "info span too small for batch");
  // Widen the 16-bit factor once; every correction solve reuses it in
  // fp32 (a solve is O(n²) per matrix — converting per sweep would double
  // the memory traffic refinement exists to spend on accuracy).
  AlignedBuffer<float> wide(mlayout.size_elems());
  widen_row(resolve_convert_isa(), storage, factors.data(), wide.data(),
            static_cast<std::int64_t>(mlayout.size_elems()));
  return refine_per_matrix(mlayout, originals,
                           std::span<const float>(wide.span()), vlayout, b, x,
                           info, options);
}

MixedSolveReport solve_batch_refine_recover_mixed(
    const BatchLayout& mlayout, std::span<const float> originals,
    std::span<std::uint16_t> factors, StoragePrec storage,
    const BatchVectorLayout& vlayout, std::span<const float> b,
    std::span<float> x, const RefineOptions& options,
    const RecoveryOptions& recovery, const CpuFactorOptions& fopts,
    std::span<std::int32_t> info) {
  const int n = mlayout.n();
  const std::int64_t batch = mlayout.batch();
  MixedSolveReport report;

  // Rung 1: refine against the 16-bit factors.
  std::vector<std::int32_t> rinfo(static_cast<std::size_t>(batch));
  report.refine =
      refine_batch_solve_mixed(mlayout, originals, factors, storage, vlayout,
                               b, x, rinfo, options);
  if (!info.empty()) {
    std::copy(rinfo.begin(), rinfo.end(), info.begin());
  }
  if (report.refine.stalled == 0) return report;

  // Rung 2: gather the stalled matrices into a compact fp32 sub-batch
  // rebuilt from the originals and run them through the shifted-retry
  // schedule. (This is the one place the full-precision input is needed —
  // the 16-bit factor of a stalled matrix has already lost the bits.)
  std::vector<std::int64_t> idx;
  for (std::int64_t bm = 0; bm < batch; ++bm) {
    if (rinfo[static_cast<std::size_t>(bm)] == kInfoRefineStalled) {
      idx.push_back(bm);
    }
  }
  const auto m = static_cast<std::int64_t>(idx.size());
  const BatchLayout sub = BatchLayout::interleaved(n, m);
  AlignedBuffer<float> sorig(sub.size_elems());
  for (std::int64_t k = 0; k < m; ++k) {
    const std::int64_t bm = idx[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        const float v = originals[mlayout.index(bm, i, j)];
        sorig[sub.index(k, i, j)] = v;
        if (i != j) sorig[sub.index(k, j, i)] = v;
      }
    }
  }
  fill_padding_identity<float>(sub, sorig.span());
  AlignedBuffer<float> sfact(sub.size_elems());
  std::copy(sorig.begin(), sorig.end(), sfact.begin());
  std::vector<std::int32_t> sinfo(static_cast<std::size_t>(m));
  report.recovery = factor_batch_recover<float>(sub, sfact.span(), fopts,
                                                recovery, sinfo);

  // Rung 3: re-refine the sub-batch against the (possibly shifted) fp32
  // factors and scatter what healed.
  const BatchVectorLayout svl = BatchVectorLayout::matching(sub);
  AlignedBuffer<float> sb(svl.size_elems()), sx(svl.size_elems());
  std::fill(sb.begin(), sb.end(), 0.0f);
  for (std::int64_t k = 0; k < m; ++k) {
    const std::int64_t bm = idx[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      sb[svl.index(k, i)] = b[vlayout.index(bm, i)];
    }
  }
  std::vector<std::int32_t> rinfo2(static_cast<std::size_t>(m));
  (void)refine_per_matrix(sub, std::span<const float>(sorig.span()),
                          std::span<const float>(sfact.span()), svl,
                          std::span<const float>(sb.span()), sx.span(),
                          rinfo2, options);

  for (std::int64_t k = 0; k < m; ++k) {
    const std::int64_t bm = idx[static_cast<std::size_t>(k)];
    const bool factor_ok = sinfo[static_cast<std::size_t>(k)] == 0;
    const bool conv = rinfo2[static_cast<std::size_t>(k)] == 0;
    if (factor_ok) {
      // Best-effort scatter even when this matrix is still stalled: the
      // shifted solve is no worse than the rung-1 one it replaces.
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          factors[mlayout.index(bm, i, j)] =
              narrow_f32(sfact[sub.index(k, i, j)], storage);
        }
      }
      for (int i = 0; i < n; ++i) {
        x[vlayout.index(bm, i)] = sx[svl.index(k, i)];
      }
    }
    if (factor_ok && conv) {
      ++report.healed;
      if (!info.empty()) info[bm] = 0;
    }
  }
  report.unrecovered = report.refine.stalled - report.healed;
  return report;
}

}  // namespace ibchol
