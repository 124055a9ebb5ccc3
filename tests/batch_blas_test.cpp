// Tests for the batched BLAS companions and the rectangular batch layout.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "cpu/batch_blas.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/batch_solve.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "layout/rect_layout.hpp"
#include "layout/vector_layout.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace ibchol {
namespace {

// ---------------------------------------------------------- rect layout --

TEST(RectLayout, IndexBijective) {
  for (const auto& l : {BatchRectLayout::canonical(3, 5, 7),
                        BatchRectLayout::interleaved(3, 5, 40),
                        BatchRectLayout::interleaved_chunked(3, 5, 70, 32)}) {
    std::set<std::size_t> seen;
    const std::int64_t count =
        l.kind() == LayoutKind::kCanonical ? l.batch() : l.padded_batch();
    for (std::int64_t b = 0; b < count; ++b) {
      for (int j = 0; j < l.cols(); ++j) {
        for (int i = 0; i < l.rows(); ++i) {
          const auto off = l.index(b, i, j);
          EXPECT_LT(off, l.size_elems());
          EXPECT_TRUE(seen.insert(off).second);
        }
      }
    }
    EXPECT_EQ(seen.size(), l.size_elems());
  }
}

TEST(RectLayout, SquareMatchesBatchLayout) {
  const auto sq = BatchLayout::interleaved_chunked(6, 100, 32);
  const auto rect = BatchRectLayout::matching(sq, 6, 6);
  for (const std::int64_t b : {std::int64_t{0}, std::int64_t{45}}) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(rect.index(b, i, j), sq.index(b, i, j));
      }
    }
  }
}

TEST(RectLayout, CompatibilityRules) {
  const auto m = BatchLayout::interleaved_chunked(8, 100, 64);
  EXPECT_TRUE(BatchRectLayout::matching(m, 8, 3).compatible(m));
  EXPECT_FALSE(
      BatchRectLayout::interleaved_chunked(8, 3, 100, 32).compatible(m));
  EXPECT_FALSE(BatchRectLayout::canonical(8, 3, 100).compatible(m));
}

TEST(RectLayout, RejectsBadShapes) {
  EXPECT_THROW((void)BatchRectLayout::canonical(0, 3, 5), Error);
  EXPECT_THROW((void)BatchRectLayout::interleaved_chunked(2, 2, 5, 40),
               Error);
}

// ------------------------------------------------------------ fixtures ---

struct BlasCase {
  LayoutKind kind;
  int chunk;
};

void PrintTo(const BlasCase& c, std::ostream* os) {
  *os << to_string(c.kind) << "_c" << c.chunk;
}

class BatchBlasTest : public ::testing::TestWithParam<BlasCase> {
 protected:
  BatchLayout square(int n, std::int64_t batch) const {
    switch (GetParam().kind) {
      case LayoutKind::kCanonical:
        return BatchLayout::canonical(n, batch);
      case LayoutKind::kInterleaved:
        return BatchLayout::interleaved(n, batch);
      case LayoutKind::kInterleavedChunked:
        return BatchLayout::interleaved_chunked(n, batch, GetParam().chunk);
    }
    throw Error("bad kind");
  }
};

// --------------------------------------------------------------- potrs ---

TEST_P(BatchBlasTest, PotrsMultiRhsSolvesSystems) {
  const int n = 10, nrhs = 3;
  const std::int64_t batch = 77;
  const BatchLayout mlayout = square(n, batch);
  const BatchRectLayout rlayout = BatchRectLayout::matching(mlayout, n, nrhs);

  AlignedBuffer<float> mats(mlayout.size_elems());
  generate_spd_batch<float>(mlayout, mats.span());
  const std::vector<float> orig(mats.begin(), mats.end());
  ASSERT_TRUE(factor_batch_cpu<float>(mlayout, mats.span(), {}).ok());

  AlignedBuffer<float> rhs(rlayout.size_elems());
  Xoshiro256 rng(5);
  std::vector<float> bvals(batch * n * nrhs);
  for (auto& v : bvals) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int c = 0; c < nrhs; ++c) {
      for (int i = 0; i < n; ++i) {
        rhs[rlayout.index(b, i, c)] = bvals[(b * nrhs + c) * n + i];
      }
    }
  }

  batch_potrs<float>(mlayout, std::span<const float>(mats.span()), rlayout,
                     rhs.span());

  // Check every RHS column of a few matrices.
  std::vector<float> a(n * n), x(n), bv(n);
  for (const std::int64_t b : {std::int64_t{0}, batch / 2, batch - 1}) {
    extract_matrix<float>(mlayout, std::span<const float>(orig), b, a);
    for (int c = 0; c < nrhs; ++c) {
      for (int i = 0; i < n; ++i) {
        x[i] = rhs[rlayout.index(b, i, c)];
        bv[i] = bvals[(b * nrhs + c) * n + i];
      }
      EXPECT_LT(residual_error<float>(n, a, x, bv), 1e-4)
          << "b=" << b << " rhs col " << c;
    }
  }
}

TEST_P(BatchBlasTest, TrsmForwardThenBackwardEqualsPotrs) {
  const int n = 6, nrhs = 2;
  const std::int64_t batch = 40;
  const BatchLayout mlayout = square(n, batch);
  const BatchRectLayout rlayout = BatchRectLayout::matching(mlayout, n, nrhs);

  AlignedBuffer<float> mats(mlayout.size_elems());
  generate_spd_batch<float>(mlayout, mats.span());
  ASSERT_TRUE(factor_batch_cpu<float>(mlayout, mats.span(), {}).ok());

  AlignedBuffer<float> r1(rlayout.size_elems()), r2(rlayout.size_elems());
  for (std::size_t i = 0; i < r1.size(); ++i) r1[i] = r2[i] = 1.0f;

  batch_potrs<float>(mlayout, std::span<const float>(mats.span()), rlayout,
                     r1.span());
  batch_trsm_left_lower<float>(mlayout, std::span<const float>(mats.span()),
                               rlayout, r2.span(), false);
  batch_trsm_left_lower<float>(mlayout, std::span<const float>(mats.span()),
                               rlayout, r2.span(), true);
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);

  // One right-hand side per matrix: solve_batch_cpu over the matching
  // vector layout gives the same bytes as both multi-RHS routes at
  // nrhs = 1, for either triangle.
  const BatchRectLayout vrect = BatchRectLayout::matching(mlayout, n, 1);
  const BatchVectorLayout vlayout = BatchVectorLayout::matching(mlayout);
  ASSERT_EQ(vrect.size_elems(), vlayout.size_elems());
  for (const Triangle tri : {Triangle::kLower, Triangle::kUpper}) {
    AlignedBuffer<float> f(mlayout.size_elems());
    generate_spd_batch<float>(mlayout, f.span());
    CpuFactorOptions opt;
    opt.triangle = tri;
    ASSERT_TRUE(factor_batch_cpu<float>(mlayout, f.span(), opt).ok());
    const std::span<const float> fc(f.span());

    AlignedBuffer<float> x(vlayout.size_elems()), p(vrect.size_elems()),
        t(vrect.size_elems());
    for (std::int64_t b = 0; b < batch; ++b) {
      for (int i = 0; i < n; ++i) {
        x[vlayout.index(b, i)] = p[vrect.index(b, i, 0)] =
            t[vrect.index(b, i, 0)] = 0.25f * static_cast<float>(i + b % 7);
      }
    }
    solve_batch_cpu<float>(mlayout, fc, vlayout, x.span(), MathMode::kIeee,
                           0, tri);
    batch_potrs<float>(mlayout, fc, vrect, p.span(), MathMode::kIeee, 0, tri);
    batch_trsm_left_lower<float>(mlayout, fc, vrect, t.span(), false,
                                 MathMode::kIeee, 0, tri);
    batch_trsm_left_lower<float>(mlayout, fc, vrect, t.span(), true,
                                 MathMode::kIeee, 0, tri);
    const std::size_t bytes = x.size() * sizeof(float);
    EXPECT_EQ(std::memcmp(x.data(), p.data(), bytes), 0)
        << (tri == Triangle::kLower ? "lower" : "upper");
    EXPECT_EQ(std::memcmp(x.data(), t.data(), bytes), 0)
        << (tri == Triangle::kLower ? "lower" : "upper");
  }
}

// ---------------------------------------------------------------- syrk ---

TEST_P(BatchBlasTest, SyrkMatchesReference) {
  const int n = 7, k = 4;
  const std::int64_t batch = 50;
  const BatchLayout clayout = square(n, batch);
  const BatchRectLayout alayout = BatchRectLayout::matching(clayout, n, k);

  AlignedBuffer<double> cs(clayout.size_elems());
  generate_spd_batch<double>(clayout, cs.span());
  AlignedBuffer<double> as(alayout.size_elems());
  Xoshiro256 rng(9);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < n; ++i) {
        as[alayout.index(b, i, j)] = rng.uniform(-1.0, 1.0);
      }
    }
  }
  // Reference result for matrix 13.
  std::vector<double> cref(n * n), aref(n * k);
  extract_matrix<double>(clayout, std::span<const double>(cs.span()), 13,
                         cref);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n; ++i) aref[i + j * n] = as[alayout.index(13, i, j)];
  }
  syrk_lower_nt(n, k, aref.data(), n, cref.data(), n);

  batch_syrk_lower<double>(clayout, cs.span(), alayout,
                           std::span<const double>(as.span()));

  std::vector<double> got(n * n);
  extract_matrix<double>(clayout, std::span<const double>(cs.span()), 13, got);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      EXPECT_NEAR(got[i + j * n], cref[i + j * n], 1e-12);
    }
  }
}

// ---------------------------------------------------------------- gemm ---

TEST_P(BatchBlasTest, GemmMatchesReference) {
  const int m = 5, n = 4, k = 3;
  const std::int64_t batch = 64;
  BatchRectLayout cl = BatchRectLayout::canonical(m, n, batch);
  BatchRectLayout al = BatchRectLayout::canonical(m, k, batch);
  BatchRectLayout bl = BatchRectLayout::canonical(n, k, batch);
  if (GetParam().kind == LayoutKind::kInterleaved) {
    cl = BatchRectLayout::interleaved(m, n, batch);
    al = BatchRectLayout::interleaved(m, k, batch);
    bl = BatchRectLayout::interleaved(n, k, batch);
  } else if (GetParam().kind == LayoutKind::kInterleavedChunked) {
    cl = BatchRectLayout::interleaved_chunked(m, n, batch, GetParam().chunk);
    al = BatchRectLayout::interleaved_chunked(m, k, batch, GetParam().chunk);
    bl = BatchRectLayout::interleaved_chunked(n, k, batch, GetParam().chunk);
  }

  AlignedBuffer<float> cs(cl.size_elems()), as(al.size_elems()),
      bs(bl.size_elems());
  Xoshiro256 rng(11);
  auto fill = [&](const BatchRectLayout& l, AlignedBuffer<float>& buf) {
    for (std::int64_t b = 0; b < batch; ++b) {
      for (int j = 0; j < l.cols(); ++j) {
        for (int i = 0; i < l.rows(); ++i) {
          buf[l.index(b, i, j)] = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
      }
    }
  };
  fill(cl, cs);
  fill(al, as);
  fill(bl, bs);

  // Reference for matrix 20.
  std::vector<float> cref(m * n), aref(m * k), bref(n * k);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) cref[i + j * m] = cs[cl.index(20, i, j)];
  }
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) aref[i + j * m] = as[al.index(20, i, j)];
    for (int i = 0; i < n; ++i) bref[i + j * n] = bs[bl.index(20, i, j)];
  }
  gemm_nt_minus(m, n, k, aref.data(), m, bref.data(), n, cref.data(), m);

  batch_gemm_nt<float>(cl, cs.span(), al, std::span<const float>(as.span()),
                       bl, std::span<const float>(bs.span()));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(cs[cl.index(20, i, j)], cref[i + j * m], 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BatchBlasTest,
    ::testing::Values(BlasCase{LayoutKind::kCanonical, 0},
                      BlasCase{LayoutKind::kInterleaved, 0},
                      BlasCase{LayoutKind::kInterleavedChunked, 32},
                      BlasCase{LayoutKind::kInterleavedChunked, 64}));

// ------------------------------------------------------------ validation --

TEST(BatchBlas, RejectsIncompatibleLayouts) {
  const auto m = BatchLayout::interleaved_chunked(6, 64, 32);
  const auto bad = BatchRectLayout::interleaved(6, 2, 64);  // wrong scheme
  AlignedBuffer<float> mats(m.size_elems());
  AlignedBuffer<float> rhs(bad.size_elems());
  EXPECT_THROW(batch_potrs<float>(m, std::span<const float>(mats.span()), bad,
                                  rhs.span()),
               Error);
}

TEST(BatchBlas, RejectsDimensionMismatch) {
  const auto m = BatchLayout::interleaved(6, 64);
  const auto r = BatchRectLayout::matching(m, 5, 2);  // rows != n
  AlignedBuffer<float> mats(m.size_elems());
  AlignedBuffer<float> rhs(r.size_elems());
  EXPECT_THROW(batch_potrs<float>(m, std::span<const float>(mats.span()), r,
                                  rhs.span()),
               Error);
}

TEST(BatchBlas, GemmRejectsBadB) {
  const std::int64_t batch = 32;
  const auto cl = BatchRectLayout::interleaved(4, 3, batch);
  const auto al = BatchRectLayout::interleaved(4, 2, batch);
  const auto bl = BatchRectLayout::interleaved(3, 5, batch);  // k mismatch
  AlignedBuffer<float> cs(cl.size_elems()), as(al.size_elems()),
      bs(bl.size_elems());
  EXPECT_THROW(
      batch_gemm_nt<float>(cl, cs.span(), al,
                           std::span<const float>(as.span()), bl,
                           std::span<const float>(bs.span())),
      Error);
}

}  // namespace
}  // namespace ibchol
