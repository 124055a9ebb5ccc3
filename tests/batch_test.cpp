// Tests for the batch factorization and solve drivers.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/batch_solve.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {
namespace {

struct BatchCase {
  int n;
  std::int64_t batch;
  LayoutKind kind;
  int chunk;
  Unroll unroll;
};

void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << "n" << c.n << "_b" << c.batch << "_" << to_string(c.kind) << "_c"
      << c.chunk << "_" << to_string(c.unroll);
}

BatchLayout make_layout(const BatchCase& c) {
  switch (c.kind) {
    case LayoutKind::kCanonical:
      return BatchLayout::canonical(c.n, c.batch);
    case LayoutKind::kInterleaved:
      return BatchLayout::interleaved(c.n, c.batch);
    case LayoutKind::kInterleavedChunked:
      return BatchLayout::interleaved_chunked(c.n, c.batch, c.chunk);
  }
  throw Error("bad kind");
}

class BatchFactorTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchFactorTest, WholeBatchMatchesReference) {
  const BatchCase c = GetParam();
  const BatchLayout layout = make_layout(c);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());

  // Keep originals for verification.
  std::vector<float> orig(data.begin(), data.end());

  CpuFactorOptions opt;
  opt.nb = 4;
  opt.looking = Looking::kTop;
  opt.unroll = c.unroll;
  std::vector<std::int32_t> info(c.batch, -1);
  const FactorResult res = factor_batch_cpu<float>(layout, data.span(), opt,
                                                   info);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.first_failed, -1);
  for (const auto i : info) EXPECT_EQ(i, 0);

  // Spot-check several matrices against an independent factorization.
  std::vector<float> a(c.n * c.n), got(c.n * c.n);
  for (const std::int64_t b :
       {std::int64_t{0}, c.batch / 3, c.batch - 1}) {
    extract_matrix<float>(layout, std::span<const float>(orig), b, a);
    ASSERT_EQ(potrf_unblocked(c.n, a.data(), c.n), 0);
    extract_matrix<float>(layout, std::span<const float>(data.span()), b, got);
    for (int j = 0; j < c.n; ++j) {
      for (int i = j; i < c.n; ++i) {
        EXPECT_NEAR(got[i + static_cast<std::size_t>(j) * c.n],
                    a[i + static_cast<std::size_t>(j) * c.n], 5e-4)
            << "b=" << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchFactorTest,
    ::testing::Values(
        BatchCase{5, 100, LayoutKind::kCanonical, 0, Unroll::kPartial},
        BatchCase{5, 100, LayoutKind::kInterleaved, 0, Unroll::kPartial},
        BatchCase{5, 100, LayoutKind::kInterleavedChunked, 32,
                  Unroll::kPartial},
        BatchCase{16, 333, LayoutKind::kInterleavedChunked, 64,
                  Unroll::kPartial},
        BatchCase{16, 333, LayoutKind::kInterleavedChunked, 64, Unroll::kFull},
        BatchCase{24, 64, LayoutKind::kInterleaved, 0, Unroll::kFull},
        BatchCase{33, 128, LayoutKind::kInterleavedChunked, 128,
                  Unroll::kPartial},
        BatchCase{8, 31, LayoutKind::kInterleavedChunked, 32,
                  Unroll::kPartial}));

TEST(BatchFactor, FailureAggregation) {
  const auto layout = BatchLayout::interleaved_chunked(8, 200, 32);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  poison_matrix<float>(layout, data.span(), 50, 1);
  poison_matrix<float>(layout, data.span(), 150, 4);
  std::vector<std::int32_t> info(200);
  const FactorResult res =
      factor_batch_cpu<float>(layout, data.span(), {}, info);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.failed_count, 2);
  EXPECT_EQ(res.first_failed, 50);
  EXPECT_EQ(info[50], 2);
  EXPECT_EQ(info[150], 5);
  EXPECT_EQ(info[0], 0);
}

TEST(BatchFactor, CanonicalFailureAggregation) {
  const auto layout = BatchLayout::canonical(8, 100);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), 99, 7);
  std::vector<std::int32_t> info(100);
  const FactorResult res =
      factor_batch_cpu<double>(layout, data.span(), {}, info);
  EXPECT_EQ(res.failed_count, 1);
  EXPECT_EQ(res.first_failed, 99);
  EXPECT_EQ(info[99], 8);
}

TEST(BatchFactor, PaddingMatricesDoNotFail) {
  // 33 matrices in chunks of 32 -> 31 identity padding matrices; they must
  // factor cleanly (identity) and not contribute failures.
  const auto layout = BatchLayout::interleaved_chunked(4, 33, 32);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  const FactorResult res = factor_batch_cpu<float>(layout, data.span(), {});
  EXPECT_TRUE(res.ok());
}

TEST(BatchFactor, RejectsUndersizedSpans) {
  const auto layout = BatchLayout::interleaved(4, 64);
  AlignedBuffer<float> data(layout.size_elems() - 1);
  EXPECT_THROW((void)factor_batch_cpu<float>(layout, data.span(), {}), Error);
}

TEST(BatchFactor, RejectsUndersizedInfo) {
  const auto layout = BatchLayout::interleaved(4, 64);
  AlignedBuffer<float> data(layout.size_elems());
  std::vector<std::int32_t> info(10);
  EXPECT_THROW((void)factor_batch_cpu<float>(layout, data.span(), {}, info),
               Error);
}

TEST(BatchFactor, WithProgramRejectsMismatchedDimensions) {
  const auto layout = BatchLayout::interleaved(8, 64);
  AlignedBuffer<float> data(layout.size_elems());
  const TileProgram program = build_tile_program(16, 4, Looking::kTop);
  EXPECT_THROW((void)factor_batch_cpu_with_program<float>(
                   layout, data.span(), program, {}),
               Error);
}

TEST(BatchFactor, WithProgramRejectsCanonical) {
  const auto layout = BatchLayout::canonical(8, 64);
  AlignedBuffer<float> data(layout.size_elems());
  const TileProgram program = build_tile_program(8, 4, Looking::kTop);
  EXPECT_THROW((void)factor_batch_cpu_with_program<float>(
                   layout, data.span(), program, {}),
               Error);
}

TEST(BatchFactor, NbClampedToN) {
  // nb = 8 on 3x3 matrices must work (clamped to the dimension).
  const auto layout = BatchLayout::interleaved(3, 64);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  CpuFactorOptions opt;
  opt.nb = 8;
  EXPECT_TRUE(factor_batch_cpu<float>(layout, data.span(), opt).ok());
}

template <typename T>
void expect_exec_equal(const BatchLayout& layout, const CpuFactorOptions& base,
                       T tol) {
  AlignedBuffer<T> interp(layout.size_elems()), vec(layout.size_elems());
  generate_spd_batch<T>(layout, interp.span());
  std::copy(interp.begin(), interp.end(), vec.begin());

  CpuFactorOptions oi = base;
  oi.exec = CpuExec::kInterpreter;
  CpuFactorOptions ov = base;
  ov.exec = CpuExec::kVectorized;
  std::vector<std::int32_t> info_i(layout.batch()), info_v(layout.batch());
  const FactorResult ri = factor_batch_cpu<T>(layout, interp.span(), oi,
                                              info_i);
  const FactorResult rv = factor_batch_cpu<T>(layout, vec.span(), ov,
                                              info_v);
  EXPECT_EQ(ri.failed_count, rv.failed_count);
  EXPECT_EQ(ri.first_failed, rv.first_failed);
  EXPECT_EQ(info_i, info_v);
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ASSERT_NEAR(interp[i], vec[i],
                tol * std::max(T{1}, std::abs(interp[i])))
        << "elem " << i;
  }
}

TEST(BatchFactor, ExecutorsAgreeAcrossVariants) {
  // The vectorized executor must match the interpreter through the public
  // driver: tile sizes (incl. n % nb != 0), looking orders, both unroll
  // modes (full engages the fused kernels for small n), both triangles,
  // both element types.
  for (const int n : {3, 8, 11, 24}) {
    for (const int nb : {1, 3, 8}) {
      const auto layout = BatchLayout::interleaved_chunked(n, 70, 32);
      CpuFactorOptions opt;
      opt.nb = nb;
      for (const auto looking :
           {Looking::kRight, Looking::kLeft, Looking::kTop}) {
        opt.looking = looking;
        expect_exec_equal<float>(layout, opt, 1e-5f);
      }
      opt.triangle = Triangle::kUpper;
      expect_exec_equal<double>(layout, opt, 1e-13);
    }
  }
  // Full unroll: fused vectorized kernel vs whole-matrix interpreter.
  for (const int n : {2, 5, 8}) {
    const auto layout = BatchLayout::interleaved(n, 64);
    CpuFactorOptions opt;
    opt.unroll = Unroll::kFull;
    expect_exec_equal<float>(layout, opt, 1e-5f);
    opt.math = MathMode::kFastMath;
    expect_exec_equal<float>(layout, opt, 1e-5f);
  }
}

TEST(BatchFactor, ExecutorsAgreeOnFailures) {
  // Poisoned matrices must report identical per-lane pivot columns under
  // both executors, fused kernel included.
  for (const auto unroll : {Unroll::kPartial, Unroll::kFull}) {
    const auto layout = BatchLayout::interleaved_chunked(8, 200, 32);
    AlignedBuffer<float> a(layout.size_elems()), b(layout.size_elems());
    generate_spd_batch<float>(layout, a.span());
    poison_matrix<float>(layout, a.span(), 50, 1);
    poison_matrix<float>(layout, a.span(), 150, 4);
    std::copy(a.begin(), a.end(), b.begin());
    CpuFactorOptions oi;
    oi.unroll = unroll;
    oi.exec = CpuExec::kInterpreter;
    CpuFactorOptions ov = oi;
    ov.exec = CpuExec::kVectorized;
    std::vector<std::int32_t> info_i(200), info_v(200);
    const FactorResult ri = factor_batch_cpu<float>(layout, a.span(), oi,
                                                    info_i);
    const FactorResult rv = factor_batch_cpu<float>(layout, b.span(), ov,
                                                    info_v);
    EXPECT_EQ(ri.failed_count, 2);
    EXPECT_EQ(rv.failed_count, 2);
    EXPECT_EQ(info_i, info_v);
  }
}

TEST(BatchFactor, DeterministicAcrossThreadCounts) {
  const auto layout = BatchLayout::interleaved_chunked(8, 128, 32);
  AlignedBuffer<float> a(layout.size_elems()), b(layout.size_elems());
  generate_spd_batch<float>(layout, a.span());
  std::copy(a.begin(), a.end(), b.begin());
  CpuFactorOptions o1;
  o1.num_threads = 1;
  CpuFactorOptions o2;
  o2.num_threads = 2;
  factor_batch_cpu<float>(layout, a.span(), o1);
  factor_batch_cpu<float>(layout, b.span(), o2);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// ------------------------------------------------------------- solve -----

class BatchSolveTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(BatchSolveTest, SolutionsSatisfySystems) {
  const int n = 12;
  const std::int64_t batch = 100;
  BatchLayout layout = BatchLayout::canonical(n, batch);
  if (GetParam() == LayoutKind::kInterleaved) {
    layout = BatchLayout::interleaved(n, batch);
  } else if (GetParam() == LayoutKind::kInterleavedChunked) {
    layout = BatchLayout::interleaved_chunked(n, batch, 32);
  }
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  std::vector<float> orig(data.begin(), data.end());

  ASSERT_TRUE(factor_batch_cpu<float>(layout, data.span(), {}).ok());

  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> rhs(vlayout.size_elems());
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int i = 0; i < n; ++i) {
      rhs[vlayout.index(b, i)] = static_cast<float>(1 + (b + i) % 5);
    }
  }
  solve_batch_cpu<float>(layout, std::span<const float>(data.span()), vlayout,
                         rhs.span());

  std::vector<float> a(n * n), x(n), bvec(n);
  for (const std::int64_t b : {std::int64_t{0}, batch / 2, batch - 1}) {
    extract_matrix<float>(layout, std::span<const float>(orig), b, a);
    for (int i = 0; i < n; ++i) {
      x[i] = rhs[vlayout.index(b, i)];
      bvec[i] = static_cast<float>(1 + (b + i) % 5);
    }
    EXPECT_LT(residual_error<float>(n, a, x, bvec), 1e-4) << "b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, BatchSolveTest,
                         ::testing::Values(LayoutKind::kCanonical,
                                           LayoutKind::kInterleaved,
                                           LayoutKind::kInterleavedChunked));

TEST(BatchSolve, RejectsMismatchedVectorLayout) {
  const auto m = BatchLayout::interleaved_chunked(4, 64, 32);
  const auto v = BatchVectorLayout::interleaved(4, 64);  // wrong kind
  AlignedBuffer<float> mats(m.size_elems());
  AlignedBuffer<float> rhs(v.size_elems());
  EXPECT_THROW(solve_batch_cpu<float>(
                   m, std::span<const float>(mats.span()), v, rhs.span()),
               Error);
}

TEST(BatchSolve, FastMathCloseToIeee) {
  const int n = 8;
  const auto layout = BatchLayout::interleaved(n, 64);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  ASSERT_TRUE(factor_batch_cpu<float>(layout, data.span(), {}).ok());

  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> r1(vlayout.size_elems()), r2(vlayout.size_elems());
  for (std::size_t i = 0; i < r1.size(); ++i) r1[i] = r2[i] = 1.0f;
  solve_batch_cpu<float>(layout, std::span<const float>(data.span()), vlayout,
                         r1.span(), MathMode::kIeee);
  solve_batch_cpu<float>(layout, std::span<const float>(data.span()), vlayout,
                         r2.span(), MathMode::kFastMath);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1[i], r2[i], 1e-3f * std::max(1.0f, std::abs(r1[i])));
  }
}

}  // namespace
}  // namespace ibchol
