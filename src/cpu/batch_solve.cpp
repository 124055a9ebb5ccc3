#include "cpu/batch_solve.hpp"

#include <cmath>
#include <limits>

#include "cpu/batch_blas.hpp"
#include "cpu/thread_util.hpp"
#include "layout/rect_layout.hpp"

namespace ibchol {

template <typename T>
void solve_batch_cpu(const BatchLayout& mlayout, std::span<const T> mats,
                     const BatchVectorLayout& vlayout, std::span<T> rhs,
                     MathMode math, int num_threads, Triangle triangle) {
  IBCHOL_CHECK(vlayout == BatchVectorLayout::matching(mlayout),
               "vector layout does not match the matrix layout");
  // One right-hand side per matrix is an n×1 block: the matching rect
  // layout has the vector layout's index map, so the multi-RHS solve
  // addresses the same elements.
  const BatchRectLayout rlayout =
      BatchRectLayout::matching(mlayout, mlayout.n(), 1);
  batch_potrs<T>(mlayout, mats, rlayout, rhs, math, num_threads, triangle);
}

template <typename T>
void batch_logdet(const BatchLayout& mlayout, std::span<const T> factors,
                  std::span<double> out, int num_threads) {
  IBCHOL_CHECK(factors.size() >= mlayout.size_elems(),
               "factor span too small");
  IBCHOL_CHECK(out.size() >= static_cast<std::size_t>(mlayout.batch()),
               "output span too small");
  const int n = mlayout.n();
  const int nt = resolve_threads(num_threads);
#pragma omp parallel for schedule(static) num_threads(nt)
  for (std::int64_t b = 0; b < mlayout.batch(); ++b) {
    double acc = 0.0;
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      const double d = static_cast<double>(factors[mlayout.index(b, i, i)]);
      if (!(d > 0.0)) {
        ok = false;
        break;
      }
      acc += std::log(d);
    }
    out[b] = ok ? 2.0 * acc : std::numeric_limits<double>::quiet_NaN();
  }
}

template void batch_logdet<float>(const BatchLayout&, std::span<const float>,
                                  std::span<double>, int);
template void batch_logdet<double>(const BatchLayout&,
                                   std::span<const double>, std::span<double>,
                                   int);

template void solve_batch_cpu<float>(const BatchLayout&,
                                     std::span<const float>,
                                     const BatchVectorLayout&,
                                     std::span<float>, MathMode, int,
                                     Triangle);
template void solve_batch_cpu<double>(const BatchLayout&,
                                      std::span<const double>,
                                      const BatchVectorLayout&,
                                      std::span<double>, MathMode, int,
                                      Triangle);

}  // namespace ibchol
