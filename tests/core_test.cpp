// Tests for the public BatchCholesky facade and tuning-parameter plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_cholesky.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {
namespace {

// ------------------------------------------------------- TuningParams ----

TEST(TuningParams, ValidationRules) {
  TuningParams p;
  p.validate(8);  // defaults are valid
  p.nb = 0;
  EXPECT_THROW(p.validate(8), Error);
  p.nb = 4;
  p.chunk_size = 48;  // not a warp multiple
  EXPECT_THROW(p.validate(8), Error);
  // Non-chunked layouts still use chunk_size as the CPU pipeline's
  // pack-scratch lane count, so the warp-multiple rule stands...
  p.chunked = false;
  EXPECT_THROW(p.validate(8), Error);
  // ...but 0 (automatic sizing) and warp multiples are valid.
  p.chunk_size = 0;
  p.validate(8);
  p.chunk_size = 64;
  p.validate(8);
}

TEST(TuningParams, EffectiveNbClamps) {
  TuningParams p;
  p.nb = 8;
  EXPECT_EQ(p.effective_nb(3), 3);
  EXPECT_EQ(p.effective_nb(50), 8);
}

TEST(TuningParams, ThreadsPerBlock) {
  TuningParams p;
  p.chunked = true;
  p.chunk_size = 256;
  EXPECT_EQ(p.threads_per_block(), 256);
  p.chunked = false;
  EXPECT_EQ(p.threads_per_block(), 128);
}

TEST(TuningParams, KeyIsStableAndDistinct) {
  TuningParams a, b;
  EXPECT_EQ(a.key(), b.key());
  // The default executor adds no suffix, so keys written by default points
  // (datasets, journals, tune caches, the SIMT model's jitter seed) keep
  // their spelling.
  EXPECT_EQ(a.key(), "nb8_top_c64_partial_ieee_l1");
  b.exec = CpuExec::kVectorized;
  EXPECT_EQ(b.key(), "nb8_top_c64_partial_ieee_l1_vec");
  b = a;
  b.looking = Looking::kRight;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.chunked = false;
  EXPECT_NE(a.key(), b.key());
}

TEST(TuningParams, StandardSweepLists) {
  EXPECT_EQ(standard_chunk_sizes().size(), 5u);
  EXPECT_EQ(standard_tile_sizes().size(), 8u);
  EXPECT_EQ(standard_chunk_sizes().front(), 32);
  EXPECT_EQ(standard_tile_sizes().back(), 8);
}

// ------------------------------------------------------- recommended -----

TEST(RecommendedParams, SmallSizesFullyUnrolled) {
  const TuningParams p = recommended_params(12);
  EXPECT_EQ(p.unroll, Unroll::kFull);
  EXPECT_TRUE(p.chunked);
}

TEST(RecommendedParams, LargeSizesTopLookingTiled) {
  const TuningParams p = recommended_params(48);
  EXPECT_EQ(p.unroll, Unroll::kPartial);
  EXPECT_EQ(p.looking, Looking::kTop);
  EXPECT_EQ(p.nb, 8);
}

// ------------------------------------------------------------ facade -----

TEST(BatchCholesky, MakeLayoutFollowsParams) {
  TuningParams p;
  p.chunked = true;
  p.chunk_size = 64;
  const auto chunked = BatchCholesky::make_layout(8, 100, p);
  EXPECT_EQ(chunked.kind(), LayoutKind::kInterleavedChunked);
  EXPECT_EQ(chunked.chunk(), 64);
  p.chunked = false;
  const auto simple = BatchCholesky::make_layout(8, 100, p);
  EXPECT_EQ(simple.kind(), LayoutKind::kInterleaved);
}

TEST(BatchCholesky, ConstructorRejectsInconsistentLayout) {
  TuningParams p;
  p.chunked = true;
  p.chunk_size = 64;
  EXPECT_THROW(
      BatchCholesky(BatchLayout::interleaved_chunked(8, 100, 32), p), Error);
  EXPECT_THROW(BatchCholesky(BatchLayout::interleaved(8, 100), p), Error);
  p.chunked = false;
  EXPECT_THROW(
      BatchCholesky(BatchLayout::interleaved_chunked(8, 100, 32), p), Error);
}

TEST(BatchCholesky, ProgramOnlyForPartialUnroll) {
  TuningParams p = recommended_params(48);
  const BatchCholesky tiled(BatchCholesky::make_layout(48, 64, p), p);
  EXPECT_TRUE(tiled.program().has_value());

  p = recommended_params(8);
  const BatchCholesky unrolled(BatchCholesky::make_layout(8, 64, p), p);
  EXPECT_FALSE(unrolled.program().has_value());
}

TEST(BatchCholesky, FactorizeAndSolveRoundTrip) {
  const int n = 16;
  const std::int64_t batch = 200;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, batch, params);
  const BatchCholesky chol(layout, params);

  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  std::vector<float> orig(data.begin(), data.end());

  const FactorResult res = chol.factorize<float>(data.span());
  ASSERT_TRUE(res.ok());

  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> rhs(vlayout.size_elems());
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int i = 0; i < n; ++i) rhs[vlayout.index(b, i)] = 1.0f;
  }
  chol.solve<float>(std::span<const float>(data.span()), vlayout, rhs.span());

  std::vector<float> a(n * n), x(n);
  const std::vector<float> ones(n, 1.0f);
  for (const std::int64_t b : {std::int64_t{1}, batch - 1}) {
    extract_matrix<float>(layout, std::span<const float>(orig), b, a);
    for (int i = 0; i < n; ++i) x[i] = rhs[vlayout.index(b, i)];
    EXPECT_LT(residual_error<float>(n, a, x, ones), 1e-4);
  }
}

TEST(BatchCholesky, OneShotHelperMatchesFacade) {
  const int n = 8;
  const std::int64_t batch = 96;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, batch, params);

  AlignedBuffer<double> a(layout.size_elems());
  generate_spd_batch<double>(layout, a.span());
  AlignedBuffer<double> b(layout.size_elems());
  std::copy(a.begin(), a.end(), b.begin());

  const BatchCholesky chol(layout, params);
  EXPECT_TRUE(chol.factorize<double>(a.span()).ok());
  EXPECT_TRUE(factorize_batch<double>(n, batch, params, b.span()).ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(BatchCholesky, InfoSpansPlumbedThrough) {
  const int n = 8;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, 64, params);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  poison_matrix<float>(layout, data.span(), 40, 0);
  std::vector<std::int32_t> info(64);
  const BatchCholesky chol(layout, params);
  const FactorResult res = chol.factorize<float>(data.span(), info);
  EXPECT_EQ(res.failed_count, 1);
  EXPECT_EQ(info[40], 1);
}

TEST(BatchCholesky, DoublePrecisionSupported) {
  const int n = 24;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, 64, params);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  std::vector<double> orig(data.begin(), data.end());
  const BatchCholesky chol(layout, params);
  ASSERT_TRUE(chol.factorize<double>(data.span()).ok());

  std::vector<double> a(n * n), l(n * n);
  extract_matrix<double>(layout, std::span<const double>(orig), 10, a);
  extract_matrix<double>(layout, std::span<const double>(data.span()), 10, l);
  EXPECT_LT(reconstruction_error<double>(n, a, l), 1e-12);
}


TEST(BatchCholesky, SolveMultiRhs) {
  const int n = 12, nrhs = 4;
  const std::int64_t batch = 96;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, batch, params);
  const BatchCholesky chol(layout, params);

  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  std::vector<float> orig(data.begin(), data.end());
  ASSERT_TRUE(chol.factorize<float>(data.span()).ok());

  const BatchRectLayout rlayout =
      BatchRectLayout::matching(layout, n, nrhs);
  AlignedBuffer<float> rhs(rlayout.size_elems());
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int c = 0; c < nrhs; ++c) {
      for (int i = 0; i < n; ++i) {
        rhs[rlayout.index(b, i, c)] = static_cast<float>(c + 1);
      }
    }
  }
  chol.solve_multi<float>(std::span<const float>(data.span()), rlayout,
                          rhs.span());

  std::vector<float> a(n * n), x(n), bv(n);
  for (int c = 0; c < nrhs; ++c) {
    extract_matrix<float>(layout, std::span<const float>(orig), 7, a);
    for (int i = 0; i < n; ++i) {
      x[i] = rhs[rlayout.index(7, i, c)];
      bv[i] = static_cast<float>(c + 1);
    }
    EXPECT_LT(residual_error<float>(n, a, x, bv), 1e-4) << "rhs " << c;
  }
}


TEST(BatchCholesky, CanonicalLayoutUsesTraditionalPath) {
  // The facade also accepts a canonical layout with non-chunked params:
  // it factors per matrix with the blocked reference routine (the
  // traditional structure), so downstream code can A/B the layouts through
  // one interface.
  const int n = 12;
  const std::int64_t batch = 64;
  TuningParams p;
  p.chunked = false;
  const BatchLayout layout = BatchLayout::canonical(n, batch);
  const BatchCholesky chol(layout, p);
  EXPECT_FALSE(chol.program().has_value());

  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  std::vector<float> orig(data.begin(), data.end());
  ASSERT_TRUE(chol.factorize<float>(data.span()).ok());

  std::vector<float> a(n * n), l(n * n);
  extract_matrix<float>(layout, std::span<const float>(orig), 20, a);
  extract_matrix<float>(layout, std::span<const float>(data.span()), 20, l);
  EXPECT_LT(reconstruction_error<float>(n, a, l), 1e-5);
}

}  // namespace
}  // namespace ibchol
