#include "cpu/batch_blas.hpp"

#include "cpu/math_policy.hpp"
#include "cpu/reference.hpp"
#include "cpu/thread_util.hpp"
#include "cpu/tile_exec.hpp"

namespace ibchol {

namespace {

// Lane-block pointers for an operand: base of the 32 consecutive matrices
// starting at `start`, with element stride `estride`.
template <typename T>
T* lane_base(T* data, const BatchRectLayout& layout, std::int64_t start) {
  return data + layout.chunk_base(start) +
         (layout.kind() == LayoutKind::kCanonical ? 0 : start % layout.chunk());
}

template <typename T>
const T* lane_base(const T* data, const BatchLayout& layout,
                   std::int64_t start) {
  return data + layout.chunk_base(start) +
         (layout.kind() == LayoutKind::kCanonical ? 0 : start % layout.chunk());
}

// --- lane-block kernels (interleaved layouts) ---------------------------

// Which substitutions a triangular solve runs on each right-hand side:
// forward L y = b, backward Lᵀ x = y, or both in turn (POTRS).
struct Sweeps {
  bool forward;
  bool backward;
};

template <typename T, typename Math>
void trsm_lane_block(int n, int nrhs, const T* __restrict__ l,
                     std::int64_t rstride, std::int64_t cstride,
                     T* __restrict__ x, std::int64_t xs, Sweeps sweeps) {
  // With transposed strides (upper factor) lelem(i, j) reads U(j, i),
  // which is exactly the L(i, j) the substitution below needs.
  auto lelem = [&](int i, int j) {
    return l + i * rstride + j * cstride;
  };
  auto xelem = [&](int i, int j) {
    return x + (static_cast<std::int64_t>(j) * n + i) * xs;
  };
  for (int col = 0; col < nrhs; ++col) {
    if (sweeps.forward) {
      // Forward: L y = b.
      for (int i = 0; i < n; ++i) {
        T* __restrict__ xi = xelem(i, col);
        for (int j = 0; j < i; ++j) {
          const T* __restrict__ lij = lelem(i, j);
          const T* __restrict__ xj = xelem(j, col);
#pragma omp simd
          for (int lane = 0; lane < kLaneBlock; ++lane) {
            xi[lane] -= lij[lane] * xj[lane];
          }
        }
        const T* __restrict__ lii = lelem(i, i);
#pragma omp simd
        for (int lane = 0; lane < kLaneBlock; ++lane) {
          xi[lane] = Math::div(xi[lane], lii[lane]);
        }
      }
    }
    if (sweeps.backward) {
      // Backward: L^T y = b.
      for (int i = n - 1; i >= 0; --i) {
        T* __restrict__ xi = xelem(i, col);
        for (int j = i + 1; j < n; ++j) {
          const T* __restrict__ lji = lelem(j, i);
          const T* __restrict__ xj = xelem(j, col);
#pragma omp simd
          for (int lane = 0; lane < kLaneBlock; ++lane) {
            xi[lane] -= lji[lane] * xj[lane];
          }
        }
        const T* __restrict__ lii = lelem(i, i);
#pragma omp simd
        for (int lane = 0; lane < kLaneBlock; ++lane) {
          xi[lane] = Math::div(xi[lane], lii[lane]);
        }
      }
    }
  }
}

template <typename T>
void syrk_lane_block(int n, int k, T* __restrict__ c, std::int64_t cs,
                     const T* __restrict__ a, std::int64_t as) {
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      T* __restrict__ cij = c + (static_cast<std::int64_t>(j) * n + i) * cs;
      for (int p = 0; p < k; ++p) {
        const T* __restrict__ aip =
            a + (static_cast<std::int64_t>(p) * n + i) * as;
        const T* __restrict__ ajp =
            a + (static_cast<std::int64_t>(p) * n + j) * as;
#pragma omp simd
        for (int lane = 0; lane < kLaneBlock; ++lane) {
          cij[lane] -= aip[lane] * ajp[lane];
        }
      }
    }
  }
}

template <typename T>
void gemm_lane_block(int m, int n, int k, T* __restrict__ c, std::int64_t cs,
                     const T* __restrict__ a, std::int64_t as,
                     const T* __restrict__ b, std::int64_t bs) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      T* __restrict__ cij = c + (static_cast<std::int64_t>(j) * m + i) * cs;
      for (int p = 0; p < k; ++p) {
        const T* __restrict__ aip =
            a + (static_cast<std::int64_t>(p) * m + i) * as;
        const T* __restrict__ bjp =
            b + (static_cast<std::int64_t>(p) * n + j) * bs;
#pragma omp simd
        for (int lane = 0; lane < kLaneBlock; ++lane) {
          cij[lane] -= aip[lane] * bjp[lane];
        }
      }
    }
  }
}

// --- canonical per-matrix fallbacks -------------------------------------

template <typename T>
void trsm_canonical(int n, int nrhs, const T* l, T* x, Sweeps sweeps,
                    Triangle triangle) {
  // Column-by-column substitution, one RHS at a time. The upper factor is
  // accessed through the transposed index map: L(i,j) := U(j,i).
  const std::ptrdiff_t rs = triangle == Triangle::kUpper ? n : 1;
  const std::ptrdiff_t cs = triangle == Triangle::kUpper ? 1 : n;
  auto lelem = [&](int i, int j) { return l[i * rs + j * cs]; };
  for (int col = 0; col < nrhs; ++col) {
    T* xc = x + static_cast<std::ptrdiff_t>(col) * n;
    if (sweeps.forward) {
      for (int i = 0; i < n; ++i) {
        T acc = xc[i];
        for (int j = 0; j < i; ++j) acc -= lelem(i, j) * xc[j];
        xc[i] = acc / lelem(i, i);
      }
    }
    if (sweeps.backward) {
      for (int i = n - 1; i >= 0; --i) {
        T acc = xc[i];
        for (int j = i + 1; j < n; ++j) acc -= lelem(j, i) * xc[j];
        xc[i] = acc / lelem(i, i);
      }
    }
  }
}

// The one triangular-solve driver behind batch_trsm_left_lower and
// batch_potrs: a single parallel pass in which every lane block (or
// canonical matrix) runs all of its requested sweeps, so a POTRS reads
// each factor once while it is still in cache.
template <typename T>
void batch_trsm(const BatchLayout& mlayout, std::span<const T> mats,
                const BatchRectLayout& rlayout, std::span<T> rhs,
                Sweeps sweeps, MathMode math, int num_threads,
                Triangle triangle) {
  IBCHOL_CHECK(rlayout.compatible(mlayout),
               "rhs layout incompatible with the matrix layout");
  IBCHOL_CHECK(rlayout.rows() == mlayout.n(), "rhs row count must equal n");
  IBCHOL_CHECK(mats.size() >= mlayout.size_elems(), "matrix span too small");
  IBCHOL_CHECK(rhs.size() >= rlayout.size_elems(), "rhs span too small");
  const int n = mlayout.n();
  const int nrhs = rlayout.cols();
  const int nt = resolve_threads(num_threads);

  if (mlayout.kind() == LayoutKind::kCanonical) {
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t b = 0; b < mlayout.batch(); ++b) {
      trsm_canonical(n, nrhs, mats.data() + mlayout.index(b, 0, 0),
                     rhs.data() + rlayout.index(b, 0, 0), sweeps, triangle);
    }
    return;
  }

  const std::int64_t blocks = mlayout.padded_batch() / kLaneBlock;
  const std::int64_t rstride = triangle == Triangle::kUpper
                                   ? mlayout.chunk() * n
                                   : mlayout.chunk();
  const std::int64_t cstride = triangle == Triangle::kUpper
                                   ? mlayout.chunk()
                                   : mlayout.chunk() * n;
#pragma omp parallel for schedule(static) num_threads(nt)
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    const std::int64_t start = blk * kLaneBlock;
    const T* l = lane_base(mats.data(), mlayout, start);
    T* x = lane_base(rhs.data(), rlayout, start);
    if (math == MathMode::kFastMath) {
      trsm_lane_block<T, FastMath>(n, nrhs, l, rstride, cstride, x,
                                   rlayout.chunk(), sweeps);
    } else {
      trsm_lane_block<T, IeeeMath>(n, nrhs, l, rstride, cstride, x,
                                   rlayout.chunk(), sweeps);
    }
  }
}

}  // namespace

template <typename T>
void batch_trsm_left_lower(const BatchLayout& mlayout, std::span<const T> mats,
                           const BatchRectLayout& rlayout, std::span<T> rhs,
                           bool trans, MathMode math, int num_threads,
                           Triangle triangle) {
  batch_trsm(mlayout, mats, rlayout, rhs,
             Sweeps{.forward = !trans, .backward = trans}, math, num_threads,
             triangle);
}

template <typename T>
void batch_potrs(const BatchLayout& mlayout, std::span<const T> mats,
                 const BatchRectLayout& rlayout, std::span<T> rhs,
                 MathMode math, int num_threads, Triangle triangle) {
  batch_trsm(mlayout, mats, rlayout, rhs,
             Sweeps{.forward = true, .backward = true}, math, num_threads,
             triangle);
}

template <typename T>
void batch_syrk_lower(const BatchLayout& clayout, std::span<T> cs,
                      const BatchRectLayout& alayout, std::span<const T> as,
                      int num_threads) {
  IBCHOL_CHECK(alayout.compatible(clayout),
               "A layout incompatible with C layout");
  IBCHOL_CHECK(alayout.rows() == clayout.n(), "A row count must equal n");
  IBCHOL_CHECK(cs.size() >= clayout.size_elems(), "C span too small");
  IBCHOL_CHECK(as.size() >= alayout.size_elems(), "A span too small");
  const int n = clayout.n();
  const int k = alayout.cols();
  const int nt = resolve_threads(num_threads);

  if (clayout.kind() == LayoutKind::kCanonical) {
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t b = 0; b < clayout.batch(); ++b) {
      syrk_lower_nt(n, k, as.data() + alayout.index(b, 0, 0), n,
                    cs.data() + clayout.index(b, 0, 0), n);
    }
    return;
  }

  const std::int64_t blocks = clayout.padded_batch() / kLaneBlock;
#pragma omp parallel for schedule(static) num_threads(nt)
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    const std::int64_t start = blk * kLaneBlock;
    syrk_lane_block<T>(n, k,
                       cs.data() + clayout.chunk_base(start) +
                           start % clayout.chunk(),
                       clayout.chunk(), lane_base(as.data(), alayout, start),
                       alayout.chunk());
  }
}

template <typename T>
void batch_gemm_nt(const BatchRectLayout& clayout, std::span<T> cs,
                   const BatchRectLayout& alayout, std::span<const T> as,
                   const BatchRectLayout& blayout, std::span<const T> bs,
                   int num_threads) {
  IBCHOL_CHECK(alayout.compatible(clayout) && blayout.compatible(clayout),
               "operand layouts incompatible");
  const int m = clayout.rows();
  const int n = clayout.cols();
  const int k = alayout.cols();
  IBCHOL_CHECK(alayout.rows() == m, "A rows must equal C rows");
  IBCHOL_CHECK(blayout.rows() == n && blayout.cols() == k,
               "B must be cols(C) x cols(A)");
  IBCHOL_CHECK(cs.size() >= clayout.size_elems(), "C span too small");
  IBCHOL_CHECK(as.size() >= alayout.size_elems(), "A span too small");
  IBCHOL_CHECK(bs.size() >= blayout.size_elems(), "B span too small");
  const int nt = resolve_threads(num_threads);

  if (clayout.kind() == LayoutKind::kCanonical) {
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t b = 0; b < clayout.batch(); ++b) {
      gemm_nt_minus(m, n, k, as.data() + alayout.index(b, 0, 0), m,
                    bs.data() + blayout.index(b, 0, 0), n,
                    cs.data() + clayout.index(b, 0, 0), m);
    }
    return;
  }

  const std::int64_t blocks = clayout.padded_batch() / kLaneBlock;
#pragma omp parallel for schedule(static) num_threads(nt)
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    const std::int64_t start = blk * kLaneBlock;
    gemm_lane_block<T>(m, n, k, lane_base(cs.data(), clayout, start),
                       clayout.chunk(), lane_base(as.data(), alayout, start),
                       alayout.chunk(), lane_base(bs.data(), blayout, start),
                       blayout.chunk());
  }
}

#define IBCHOL_INSTANTIATE(T)                                               \
  template void batch_trsm_left_lower<T>(const BatchLayout&,               \
                                         std::span<const T>,               \
                                         const BatchRectLayout&,           \
                                         std::span<T>, bool, MathMode, int,\
                                         Triangle);                        \
  template void batch_potrs<T>(const BatchLayout&, std::span<const T>,     \
                               const BatchRectLayout&, std::span<T>,       \
                               MathMode, int, Triangle);                   \
  template void batch_syrk_lower<T>(const BatchLayout&, std::span<T>,      \
                                    const BatchRectLayout&,                \
                                    std::span<const T>, int);              \
  template void batch_gemm_nt<T>(const BatchRectLayout&, std::span<T>,     \
                                 const BatchRectLayout&,                   \
                                 std::span<const T>,                       \
                                 const BatchRectLayout&,                   \
                                 std::span<const T>, int)

IBCHOL_INSTANTIATE(float);
IBCHOL_INSTANTIATE(double);
#undef IBCHOL_INSTANTIATE

}  // namespace ibchol
