// Tests for the vectorized (explicit-SIMD) executor.
//
// The load-bearing property is the math-policy contract: under IEEE math
// every tier of the vectorized executor performs the same correctly-rounded
// sqrt/div/fma sequence as the interpreter oracle, in the same per-element
// order, so the factors must be IDENTICAL BITS — across layouts, triangles,
// matrix sizes, unrolling modes, and element types. Fast math maps to each
// tier's native approximation and is only held to a relative bound.
//
// Bit-identity is asserted only when this test TU is compiled with FMA
// available (__FMA__): the interpreter's update loops are written as
// `c -= a*b` and rely on the compiler contracting them to fused
// multiply-adds to match the vectorized executor's explicit FMAs. Without
// FMA the whole build has no contraction anywhere and the comparison
// degrades to a few-ulp bound.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/simd/isa.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"

namespace ibchol {
namespace {

struct VecCase {
  int n;
  LayoutKind layout;
  Triangle triangle;
  Unroll unroll;
  int nb = 0;  ///< tile size; 0 = min(8, n)
  Looking looking = Looking::kTop;
};

void PrintTo(const VecCase& c, std::ostream* os) {
  *os << "n" << c.n << "_"
      << (c.layout == LayoutKind::kInterleaved ? "interleaved" : "chunked")
      << "_" << to_string(c.triangle) << "_" << to_string(c.unroll);
  if (c.nb != 0) *os << "_nb" << c.nb << "_" << to_string(c.looking);
}

BatchLayout make_layout(const VecCase& c, std::int64_t batch) {
  return c.layout == LayoutKind::kInterleaved
             ? BatchLayout::interleaved(c.n, batch)
             : BatchLayout::interleaved_chunked(c.n, batch, 64);
}

// Factors a fresh copy of `orig` with the given executor and returns the
// factored buffer plus per-matrix info.
template <typename T>
AlignedBuffer<T> factor_with(const BatchLayout& layout,
                             const AlignedBuffer<T>& orig,
                             const CpuFactorOptions& options,
                             std::vector<std::int32_t>& info) {
  AlignedBuffer<T> data(layout.size_elems());
  std::copy(orig.begin(), orig.end(), data.begin());
  info.assign(static_cast<std::size_t>(layout.batch()), 0);
  (void)factor_batch_cpu<T>(layout, data.span(), options,
                            std::span<std::int32_t>(info));
  return data;
}

template <typename T>
void expect_bound_equal(const T* a, const T* b, std::size_t count, T tol) {
  for (std::size_t i = 0; i < count; ++i) {
    const T bound = tol * std::max(T{1}, std::abs(a[i]));
    ASSERT_NEAR(a[i], b[i], bound) << "elem " << i;
  }
}

template <typename T>
void run_ieee_case(const VecCase& c, SimdIsa isa, T tol) {
  const std::int64_t batch = 3 * kLaneBlock;  // several lane blocks
  const BatchLayout layout = make_layout(c, batch);
  AlignedBuffer<T> orig(layout.size_elems());
  generate_spd_batch<T>(layout, orig.span(),
                        {SpdKind::kGramPlusDiagonal, 4321, 50.0});

  CpuFactorOptions opt;
  opt.nb = c.nb != 0 ? c.nb : std::min(8, c.n);
  opt.looking = c.looking;
  opt.unroll = c.unroll;
  opt.math = MathMode::kIeee;
  opt.triangle = c.triangle;

  std::vector<std::int32_t> ref_info, vec_info;
  opt.exec = CpuExec::kInterpreter;
  const AlignedBuffer<T> ref = factor_with(layout, orig, opt, ref_info);
  opt.exec = CpuExec::kVectorized;
  opt.isa = isa;
  const AlignedBuffer<T> vec = factor_with(layout, orig, opt, vec_info);

  EXPECT_EQ(ref_info, vec_info);
#if defined(__FMA__)
  (void)tol;
  EXPECT_EQ(std::memcmp(ref.data(), vec.data(),
                        layout.size_elems() * sizeof(T)),
            0)
      << "IEEE factors must be bit-identical to the interpreter";
#else
  expect_bound_equal(ref.data(), vec.data(), layout.size_elems(), tol);
#endif
}

class VecExecTest : public ::testing::TestWithParam<VecCase> {};

TEST_P(VecExecTest, IeeeMatchesInterpreterFloat) {
  run_ieee_case<float>(GetParam(), SimdIsa::kAuto, 1e-5f);
}

TEST_P(VecExecTest, IeeeMatchesInterpreterDouble) {
  run_ieee_case<double>(GetParam(), SimdIsa::kAuto, 1e-13);
}

// Every explicitly requested tier must give the same (bit-identical under
// FMA) answer: requests above the host's capability clamp down, so this is
// safe to run anywhere, and on an AVX-512 host it genuinely exercises all
// three tiers.
TEST_P(VecExecTest, IeeeIdenticalOnEveryTier) {
  for (const SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    run_ieee_case<float>(GetParam(), isa, 1e-5f);
  }
}

std::vector<VecCase> vec_cases() {
  std::vector<VecCase> cases;
  // n spans the fused range (<= 16), the runtime-n whole-matrix range
  // (<= 64), the interpreter fallback past it (65), and tile-program corner
  // dims (n % nb != 0).
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 24, 31, 33, 48, 64,
                      65}) {
    for (const auto layout :
         {LayoutKind::kInterleaved, LayoutKind::kInterleavedChunked}) {
      for (const auto triangle : {Triangle::kLower, Triangle::kUpper}) {
        for (const auto unroll : {Unroll::kFull, Unroll::kPartial}) {
          cases.push_back({n, layout, triangle, unroll});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, VecExecTest, ::testing::ValuesIn(vec_cases()),
                         ::testing::PrintToStringParamName());

// The tile-program path over the variant grid: every tile size (including
// the n % nb != 0 corners) and looking order, plus the upper triangle.
std::vector<VecCase> variant_cases() {
  std::vector<VecCase> cases;
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 24, 31, 33, 48}) {
    for (const int nb : {1, 2, 3, 5, 8}) {
      if (nb > n) continue;
      for (const auto looking :
           {Looking::kRight, Looking::kLeft, Looking::kTop}) {
        cases.push_back({n, LayoutKind::kInterleaved, Triangle::kLower,
                         Unroll::kPartial, nb, looking});
      }
      cases.push_back({n, LayoutKind::kInterleaved, Triangle::kUpper,
                       Unroll::kPartial, nb, Looking::kTop});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(VariantGrid, VecExecTest,
                         ::testing::ValuesIn(variant_cases()),
                         ::testing::PrintToStringParamName());

// ----------------------------------------------------------- fast math ---

// Fast math uses each tier's native rsqrt/rcp plus one Newton step: a
// relative error bound, not bit-identity. Held against the interpreter's
// IEEE factor, which bounds the approximation error end to end.
TEST(VecExecFastMath, BoundedRelativeError) {
  for (const int n : {4, 8, 16, 24, 33, 64}) {
    const VecCase c{n, LayoutKind::kInterleaved, Triangle::kLower,
                    Unroll::kFull};
    const BatchLayout layout = make_layout(c, kLaneBlock);
    AlignedBuffer<float> orig(layout.size_elems());
    generate_spd_batch<float>(layout, orig.span(),
                              {SpdKind::kGramPlusDiagonal, 99, 50.0});

    CpuFactorOptions opt;
    opt.unroll = Unroll::kFull;
    opt.triangle = c.triangle;
    std::vector<std::int32_t> ref_info, fast_info;
    opt.exec = CpuExec::kInterpreter;
    opt.math = MathMode::kIeee;
    const auto ref = factor_with(layout, orig, opt, ref_info);
    opt.exec = CpuExec::kVectorized;
    opt.math = MathMode::kFastMath;
    const auto fast = factor_with(layout, orig, opt, fast_info);

    EXPECT_EQ(ref_info, fast_info) << "n=" << n;
    expect_bound_equal(ref.data(), fast.data(), layout.size_elems(), 1e-4f);
  }
}

// ------------------------------------------------------- info / pivots ---

// Indefinite lanes: the vectorized executor must report the same 1-based
// first-bad-pivot column as the interpreter, lane for lane, and leave
// healthy lanes bit-identical.
TEST(VecExecInfo, MatchesInterpreterOnIndefiniteLanes) {
  const int n = 16;
  for (const auto unroll : {Unroll::kFull, Unroll::kPartial}) {
    const BatchLayout layout = BatchLayout::interleaved(n, kLaneBlock);
    AlignedBuffer<float> orig(layout.size_elems());
    generate_spd_batch<float>(layout, orig.span(),
                              {SpdKind::kGramPlusDiagonal, 7, 50.0});
    // Break a different diagonal entry in every 3rd lane.
    for (int l = 0; l < kLaneBlock; l += 3) {
      const int k = l % n;
      orig[layout.index(l, k, k)] = -1.0f;
    }

    CpuFactorOptions opt;
    opt.unroll = unroll;
    std::vector<std::int32_t> ref_info, vec_info;
    opt.exec = CpuExec::kInterpreter;
    const auto ref = factor_with(layout, orig, opt, ref_info);
    opt.exec = CpuExec::kVectorized;
    const auto vec = factor_with(layout, orig, opt, vec_info);

    ASSERT_EQ(ref_info, vec_info);
    for (int l = 0; l < kLaneBlock; l += 3) {
      EXPECT_NE(ref_info[static_cast<std::size_t>(l)], 0) << "lane " << l;
    }
#if defined(__FMA__)
    EXPECT_EQ(std::memcmp(ref.data(), vec.data(),
                          layout.size_elems() * sizeof(float)),
              0);
#endif
  }
}

// ------------------------------------------------------------ dispatch ---

// Clears an ambient IBCHOL_SIMD_ISA for the test's duration (check.sh runs
// the whole suite with the override set; the dispatch tests that probe
// default resolution must not inherit it), restoring it afterwards.
class ScopedClearSimdEnv {
 public:
  ScopedClearSimdEnv() {
    if (const char* v = std::getenv("IBCHOL_SIMD_ISA")) {
      saved_ = v;
      unsetenv("IBCHOL_SIMD_ISA");
    }
  }
  ~ScopedClearSimdEnv() {
    if (saved_.has_value()) setenv("IBCHOL_SIMD_ISA", saved_->c_str(), 1);
  }

 private:
  std::optional<std::string> saved_;
};

TEST(SimdDispatch, DetectedTierIsSane) {
  const ScopedClearSimdEnv env;
  const SimdIsa detected = detect_simd_isa();
  EXPECT_NE(detected, SimdIsa::kAuto);
  EXPECT_EQ(resolve_simd_isa(SimdIsa::kAuto), detected);
}

TEST(SimdDispatch, RequestsClampToDetectedTier) {
  const ScopedClearSimdEnv env;
  const SimdIsa detected = detect_simd_isa();
  for (const SimdIsa req :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    const SimdIsa got = resolve_simd_isa(req);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(detected));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(req));
    if (static_cast<int>(req) <= static_cast<int>(detected)) {
      EXPECT_EQ(got, req);
    }
  }
}

TEST(SimdDispatch, EnvOverrideForcesTier) {
  const ScopedClearSimdEnv env;
  ASSERT_EQ(setenv("IBCHOL_SIMD_ISA", "scalar", 1), 0);
  EXPECT_EQ(resolve_simd_isa(SimdIsa::kAuto), SimdIsa::kScalar);
  EXPECT_EQ(resolve_simd_isa(SimdIsa::kAvx512), SimdIsa::kScalar);
  EXPECT_EQ(vec_kernels<float>(SimdIsa::kAuto).tier, SimdIsa::kScalar);
  // Typo'd overrides are ignored rather than faulting.
  ASSERT_EQ(setenv("IBCHOL_SIMD_ISA", "avx9000", 1), 0);
  EXPECT_EQ(resolve_simd_isa(SimdIsa::kAuto), detect_simd_isa());
  ASSERT_EQ(unsetenv("IBCHOL_SIMD_ISA"), 0);
}

TEST(SimdDispatch, KernelTablesReportTheirTier) {
  // The scalar table always exists and says so; upper tiers either report
  // themselves or (when the compiler could not build them) decay downward.
  EXPECT_EQ(vec_kernels_scalar<float>().tier, SimdIsa::kScalar);
  EXPECT_GE(vec_kernels_scalar<float>().width, 1);
  EXPECT_LE(static_cast<int>(vec_kernels_avx2<double>().tier),
            static_cast<int>(SimdIsa::kAvx2));
  EXPECT_LE(static_cast<int>(vec_kernels_avx512<double>().tier),
            static_cast<int>(SimdIsa::kAvx512));
}

// ----------------------------------------------------------- alignment ---

TEST(VecExecAlignment, RejectsUnalignedData) {
  const int n = 8;
  const BatchLayout layout = BatchLayout::interleaved(n, kLaneBlock);
  AlignedBuffer<float> data(layout.size_elems() + 16);
  CpuFactorOptions opt;
  opt.exec = CpuExec::kVectorized;
  // A span starting one element past an aligned base cannot be factored by
  // the vectorized executor; it must fail loudly, not crash in a kernel.
  std::span<float> shifted(data.data() + 1, layout.size_elems());
  EXPECT_THROW((void)factor_batch_cpu<float>(layout, shifted, opt), Error);
}

}  // namespace
}  // namespace ibchol
