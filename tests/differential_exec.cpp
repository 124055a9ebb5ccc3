// Differential executor testing: every CpuExec × layout × ISA tier against
// the interpreter oracle on the same seeded batch.
//
// The interpreter is the repo's correctness oracle (runtime trip counts,
// no fusion, no intrinsics). Under IEEE math every other executor performs
// the same correctly-rounded operation sequence, so its factors must be
// IDENTICAL BITS to the oracle's; under fast math the executors use their
// native approximations and are held to a relative bound instead. One
// table drives the whole matrix of configurations, so adding an executor
// or tier is one more row, not a new test.
//
// The AVX-tier rows inherit the FMA caveat of simd_exec_test.cpp: the
// interpreter relies on compiler contraction to emit the same FMAs the
// intrinsic bodies spell explicitly, so without __FMA__ those rows degrade
// to a few-ulp bound. Scalar-tier rows assert bit identity on every build:
// the scalar tier fuses its multiply-subtract exactly when the build lets
// the compiler contract the interpreter's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/tile_exec.hpp"
#include "layout/generate.hpp"
#include "layout/layout.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {
namespace {

constexpr std::int64_t kBatch = 2 * kLaneBlock + 6;  // padding tail

enum class Compare { kBitIdentical, kBitIdenticalIfFma, kBounded };

struct DiffCase {
  int n;
  LayoutKind layout;
  const char* exec;  // as a request or record spells it (cpu_exec_from_string)
  SimdIsa isa;
  MathMode math;
  Compare compare;
  double tol;  // relative, used by the bounded comparisons
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << "n" << c.n << "_" << to_string(c.layout) << "_" << c.exec << "_"
      << to_string(c.isa) << "_" << to_string(c.math);
}

BatchLayout make_layout(const DiffCase& c) {
  return c.layout == LayoutKind::kInterleaved
             ? BatchLayout::interleaved(c.n, kBatch)
             : BatchLayout::interleaved_chunked(c.n, kBatch, 64);
}

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
void run_case(const DiffCase& c) {
  const BatchLayout layout = make_layout(c);
  AlignedBuffer<T> orig(layout.size_elems());
  generate_spd_batch<T>(layout, orig.span(),
                        {SpdKind::kGramPlusDiagonal, 20260807, 50.0});

  CpuFactorOptions opt;
  opt.nb = std::min(8, c.n);
  opt.unroll = Unroll::kFull;

  // The oracle always runs IEEE: for IEEE rows that is the exact reference;
  // for fast-math rows it bounds the approximation error end to end.
  std::vector<std::int32_t> ref_info, got_info;
  opt.exec = CpuExec::kInterpreter;
  opt.math = MathMode::kIeee;
  const AlignedBuffer<T> ref = factor_with(layout, orig, opt, ref_info);

  opt.exec = cpu_exec_from_string(c.exec);
  opt.isa = c.isa;  // clamped by the library above the detected tier
  opt.math = c.math;
  const AlignedBuffer<T> got = factor_with(layout, orig, opt, got_info);

  EXPECT_EQ(ref_info, got_info) << "per-matrix status diverged";

  bool exact = c.compare == Compare::kBitIdentical;
#if defined(__FMA__)
  exact = exact || c.compare == Compare::kBitIdenticalIfFma;
#endif
  if (exact) {
    EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                          layout.size_elems() * sizeof(T)),
              0)
        << "factor bytes diverged from the interpreter oracle";
  } else {
    const T tol = static_cast<T>(c.tol);
    for (std::size_t i = 0; i < layout.size_elems(); ++i) {
      const T bound = tol * std::max(T{1}, std::abs(ref[i]));
      ASSERT_NEAR(ref[i], got[i], bound) << "elem " << i;
    }
  }
}

class DifferentialExecTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialExecTest, Float) { run_case<float>(GetParam()); }

TEST_P(DifferentialExecTest, Double) {
  const DiffCase c = GetParam();
  if (c.math == MathMode::kFastMath) GTEST_SKIP() << "fast math is fp32";
  run_case<double>(c);
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  // n spans fused whole-matrix kernels, runtime-n bodies, tile programs
  // with ragged edges (n % nb != 0), and the interpreter-fallback range.
  for (const int n : {3, 8, 16, 24, 33, 48}) {
    for (const auto layout :
         {LayoutKind::kInterleaved, LayoutKind::kInterleavedChunked}) {
      // "spec" named the compile-time specialized executor in sweep CSVs,
      // journals and tune caches; such records read back as the
      // interpreter, so they reproduce the oracle's bytes on every build.
      cases.push_back({n, layout, "spec", SimdIsa::kAuto, MathMode::kIeee,
                       Compare::kBitIdentical, 1e-5});
      // kAuto on the scalar tier resolves to the interpreter at every n.
      cases.push_back({n, layout, "auto", SimdIsa::kScalar, MathMode::kIeee,
                       Compare::kBitIdentical, 1e-5});
      // kAuto resolves to the measured winner (possibly vectorized), so it
      // carries the vectorized rows' FMA caveat.
      cases.push_back({n, layout, "auto", SimdIsa::kAuto, MathMode::kIeee,
                       Compare::kBitIdenticalIfFma, 1e-5});
      for (const SimdIsa isa :
           {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
        cases.push_back({n, layout, "vectorized", isa, MathMode::kIeee,
                         isa == SimdIsa::kScalar ? Compare::kBitIdentical
                                                 : Compare::kBitIdenticalIfFma,
                         1e-5});
      }
      cases.push_back({n, layout, "vectorized", SimdIsa::kAuto,
                       MathMode::kFastMath, Compare::kBounded, 1e-4});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, DifferentialExecTest,
                         ::testing::ValuesIn(diff_cases()),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace ibchol
