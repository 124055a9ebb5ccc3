// Each role of the former compile-time specialized executor, checked on the
// executor that holds it now. The suites are named after the roles'
// previous owner so their results stay comparable across that change.
//  * SpecExecTest runs every tile-program variant — tile size (including
//    the n % nb != 0 corners) × looking order × triangle × math mode ×
//    element type — through the public driver on the default `exec`
//    (packed through chunk scratch) and on kAuto at the scalar tier (in
//    place). Both routes run the interpreter, so the factors must be the
//    bytes of a direct interpreter run, lane block by lane block.
//  * FusedTest and SpecExec cover the fully unrolled small-n kernels and
//    the lane-block contract of the vectorized executor's tables, on every
//    tier the host supports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "cpu/tile_exec.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"

namespace ibchol {
namespace {

constexpr SimdIsa kTiers[] = {SimdIsa::kScalar, SimdIsa::kAvx2,
                              SimdIsa::kAvx512};

template <typename T>
void expect_bound_equal(const T* a, const T* b, std::size_t count, T tol) {
  for (std::size_t i = 0; i < count; ++i) {
    const T bound = tol * std::max(T{1}, std::abs(a[i]));
    ASSERT_NEAR(a[i], b[i], bound) << "elem " << i;
  }
}

// Under IEEE math the vectorized bodies match the interpreter bit for bit
// when the build contracts the interpreter's updates to FMAs (see
// simd_exec_test.cpp); otherwise they agree within a few ulp.
template <typename T>
void expect_ieee_equal(const T* a, const T* b, std::size_t count) {
#if defined(__FMA__)
  EXPECT_EQ(std::memcmp(a, b, count * sizeof(T)), 0)
      << "IEEE factors must be bit-identical to the interpreter";
#else
  expect_bound_equal(a, b, count, T(1e-5));
#endif
}

// ------------------------------------------------ interpreter routes -----

struct SpecCase {
  int n;
  int nb;
  Looking looking;
  MathMode math;
  Triangle triangle;
};

void PrintTo(const SpecCase& c, std::ostream* os) {
  *os << "n" << c.n << "_nb" << c.nb << "_" << to_string(c.looking) << "_"
      << to_string(c.math) << "_" << to_string(c.triangle);
}

template <typename T>
void run_case(const SpecCase& c) {
  const auto layout = BatchLayout::interleaved(c.n, 3 * kLaneBlock);
  AlignedBuffer<T> orig(layout.size_elems());
  generate_spd_batch<T>(layout, orig.span(),
                        {SpdKind::kGramPlusDiagonal, 1234, 50.0});

  // Oracle: the interpreter called directly on each lane block.
  AlignedBuffer<T> ref(layout.size_elems());
  std::copy(orig.begin(), orig.end(), ref.begin());
  const TileProgram program = build_tile_program(c.n, c.nb, c.looking);
  std::vector<std::int32_t> ref_info(layout.padded_batch(), 0);
  for (std::int64_t lb = 0; lb < layout.padded_batch(); lb += kLaneBlock) {
    execute_program_lane_block<T>(program, c.math, ref.data() + lb,
                                  layout.chunk(), ref_info.data() + lb,
                                  c.triangle);
  }

  CpuFactorOptions base;
  base.nb = c.nb;
  base.looking = c.looking;
  base.math = c.math;
  base.triangle = c.triangle;
  base.unroll = Unroll::kPartial;

  CpuFactorOptions packed = base;  // default exec, one lane block per chunk
  packed.chunk_size = kLaneBlock;
  CpuFactorOptions scalar_auto = base;
  scalar_auto.exec = CpuExec::kAuto;
  scalar_auto.isa = SimdIsa::kScalar;

  for (const CpuFactorOptions& opt : {packed, scalar_auto}) {
    AlignedBuffer<T> got(layout.size_elems());
    std::copy(orig.begin(), orig.end(), got.begin());
    std::vector<std::int32_t> info(layout.batch(), 0);
    (void)factor_batch_cpu<T>(layout, got.span(), opt, info);
    EXPECT_EQ(info, ref_info) << "exec " << to_string(opt.exec);
    EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                          layout.size_elems() * sizeof(T)),
              0)
        << "exec " << to_string(opt.exec)
        << ": factor bytes diverged from the direct interpreter run";
  }
}

class SpecExecTest : public ::testing::TestWithParam<SpecCase> {};

TEST_P(SpecExecTest, MatchesInterpreterFloat) { run_case<float>(GetParam()); }

TEST_P(SpecExecTest, MatchesInterpreterDouble) {
  run_case<double>(GetParam());
}

std::vector<SpecCase> spec_cases() {
  std::vector<SpecCase> cases;
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 24, 31, 33, 48}) {
    for (const int nb : {1, 2, 3, 5, 8}) {
      if (nb > n) continue;
      for (const auto looking :
           {Looking::kRight, Looking::kLeft, Looking::kTop}) {
        cases.push_back({n, nb, looking, MathMode::kIeee, Triangle::kLower});
      }
      cases.push_back({n, nb, Looking::kTop, MathMode::kIeee,
                       Triangle::kUpper});
    }
  }
  // Fast math: a representative subset.
  for (const int n : {4, 8, 24, 33}) {
    cases.push_back({n, std::min(n, 8), Looking::kTop, MathMode::kFastMath,
                     Triangle::kLower});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(VariantGrid, SpecExecTest,
                         ::testing::ValuesIn(spec_cases()));

// ------------------------------------------------------------- fused -----

class FusedTest : public ::testing::TestWithParam<int> {};

TEST_P(FusedTest, MatchesWholeMatrixInterpreter) {
  const int n = GetParam();
  const auto layout = BatchLayout::interleaved(n, kLaneBlock);
  for (const SimdIsa isa : kTiers) {
    const VecKernels<float>& vk = vec_kernels<float>(isa);
    for (const auto triangle : {Triangle::kLower, Triangle::kUpper}) {
      for (const auto math : {MathMode::kIeee, MathMode::kFastMath}) {
        SCOPED_TRACE(to_string(vk.tier) + " " + to_string(triangle) + " " +
                     to_string(math));
        AlignedBuffer<float> a(layout.size_elems());
        generate_spd_batch<float>(layout, a.span());
        AlignedBuffer<float> b(layout.size_elems());
        std::copy(a.begin(), a.end(), b.begin());

        std::vector<float> scratch(whole_matrix_scratch_elems(n));
        alignas(64) std::int32_t info_a[kLaneBlock] = {};
        execute_whole_matrix_lane_block<float>(n, math, a.data(),
                                               layout.chunk(), info_a,
                                               scratch.data(), triangle);
        alignas(64) std::int32_t info_b[kLaneBlock] = {};
        ASSERT_TRUE(
            vk.fused(n, math, b.data(), layout.chunk(), info_b, triangle));
        for (int l = 0; l < kLaneBlock; ++l) EXPECT_EQ(info_a[l], info_b[l]);
        if (math == MathMode::kIeee) {
          expect_ieee_equal(a.data(), b.data(), layout.size_elems());
        } else {
          expect_bound_equal(a.data(), b.data(), layout.size_elems(), 1e-5f);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SpecExec, FusedInfoReportsFailingColumnPerLane) {
  const int n = 8;
  const auto layout = BatchLayout::interleaved(n, kLaneBlock);
  for (const SimdIsa isa : kTiers) {
    const VecKernels<float>& vk = vec_kernels<float>(isa);
    SCOPED_TRACE(to_string(vk.tier));
    AlignedBuffer<float> data(layout.size_elems());
    generate_spd_batch<float>(layout, data.span());
    poison_matrix<float>(layout, data.span(), 3, 2);
    poison_matrix<float>(layout, data.span(), 19, 6);
    alignas(64) std::int32_t info[kLaneBlock] = {};
    ASSERT_TRUE(vk.fused(n, MathMode::kIeee, data.data(), layout.chunk(),
                         info, Triangle::kLower));
    for (int b = 0; b < kLaneBlock; ++b) {
      if (b == 3) {
        EXPECT_EQ(info[b], 3);
      } else if (b == 19) {
        EXPECT_EQ(info[b], 7);
      } else {
        EXPECT_EQ(info[b], 0);
      }
    }
  }
}

TEST(SpecExec, FusedRejectsLargeDimensions) {
  // Past their cutoffs the fully unrolled and whole-matrix bodies decline
  // without touching the lane block, so the driver can fall back.
  const int n = kMaxVecWholeDim + 1;
  const auto layout = BatchLayout::interleaved(n, kLaneBlock);
  AlignedBuffer<float> orig(layout.size_elems());
  generate_spd_batch<float>(layout, orig.span());
  for (const SimdIsa isa : kTiers) {
    const VecKernels<float>& vk = vec_kernels<float>(isa);
    SCOPED_TRACE(to_string(vk.tier));
    AlignedBuffer<float> data(layout.size_elems());
    std::copy(orig.begin(), orig.end(), data.begin());
    alignas(64) std::int32_t info[kLaneBlock] = {};
    EXPECT_FALSE(vk.fused(kMaxVecFusedDim + 1, MathMode::kIeee, data.data(),
                          layout.chunk(), info, Triangle::kLower));
    EXPECT_FALSE(vk.whole_matrix(n, MathMode::kIeee, data.data(),
                                 layout.chunk(), info, Triangle::kLower));
    EXPECT_FALSE(vk.blocked(n, MathMode::kIeee, data.data(), layout.chunk(),
                            info, Triangle::kLower));
    EXPECT_EQ(std::memcmp(orig.data(), data.data(),
                          layout.size_elems() * sizeof(float)),
              0);
    for (int l = 0; l < kLaneBlock; ++l) EXPECT_EQ(info[l], 0);
  }
}

TEST(SpecExec, BindRejectsOversizedTiles) {
  TileProgram p = build_tile_program(16, 8, Looking::kTop);
  p.nb = 9;  // lie about the tile size
  AlignedBuffer<float> data(16 * 16 * kLaneBlock);
  for (const SimdIsa isa : kTiers) {
    const VecKernels<float>& vk = vec_kernels<float>(isa);
    EXPECT_THROW(vk.run_program(p, MathMode::kIeee, data.data(), kLaneBlock,
                                nullptr, Triangle::kLower),
                 Error)
        << to_string(vk.tier);
  }
}

TEST(SpecExec, WorksInsideLargerChunk) {
  // Base offset and element stride honored, neighbors untouched — same
  // contract as the interpreter.
  const int n = 6;
  const auto layout = BatchLayout::interleaved_chunked(n, 128, 128);
  const TileProgram program = build_tile_program(n, 3, Looking::kTop);
  for (const SimdIsa isa : kTiers) {
    const VecKernels<float>& vk = vec_kernels<float>(isa);
    SCOPED_TRACE(to_string(vk.tier));
    AlignedBuffer<float> a(layout.size_elems());
    generate_spd_batch<float>(layout, a.span());
    AlignedBuffer<float> b(layout.size_elems());
    std::copy(a.begin(), a.end(), b.begin());

    execute_program_lane_block<float>(program, MathMode::kIeee,
                                      a.data() + 64, layout.chunk(), nullptr);
    vk.run_program(program, MathMode::kIeee, b.data() + 64, layout.chunk(),
                   nullptr, Triangle::kLower);
    expect_ieee_equal(a.data(), b.data(), layout.size_elems());
    AlignedBuffer<float> pristine(layout.size_elems());
    generate_spd_batch<float>(layout, pristine.span());
    for (std::size_t i = 0; i < layout.size_elems(); ++i) {
      const auto lane = static_cast<std::int64_t>(i) % layout.chunk();
      if (lane < 64 || lane >= 64 + kLaneBlock) {
        ASSERT_EQ(b[i], pristine[i]) << "elem " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ibchol
