// Tests for the resilience layer: shifted-retry recovery, fault injection,
// and the fault-tolerant / resumable sweep driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "autotune/journal.hpp"
#include "autotune/sweep.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/recover.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "obs/counters.hpp"
#include "util/aligned_buffer.hpp"
#include "util/fault_inject.hpp"

namespace ibchol {
namespace {

BatchLayout make_layout(LayoutKind kind, int n, std::int64_t batch,
                        int chunk = 32) {
  switch (kind) {
    case LayoutKind::kCanonical: return BatchLayout::canonical(n, batch);
    case LayoutKind::kInterleaved: return BatchLayout::interleaved(n, batch);
    case LayoutKind::kInterleavedChunked:
      return BatchLayout::interleaved_chunked(n, batch, chunk);
  }
  throw Error("bad kind");
}

// The factored triangle of every matrix except those in `skip`, compared
// element-for-element for bit identity.
template <typename T>
void expect_triangles_identical(const BatchLayout& layout,
                                std::span<const T> a, std::span<const T> b,
                                Triangle triangle,
                                const std::vector<std::int64_t>& skip,
                                const char* what) {
  for (std::int64_t m = 0; m < layout.batch(); ++m) {
    if (std::find(skip.begin(), skip.end(), m) != skip.end()) continue;
    for (int j = 0; j < layout.n(); ++j) {
      const int i0 = triangle == Triangle::kLower ? j : 0;
      const int i1 = triangle == Triangle::kLower ? layout.n() : j + 1;
      for (int i = i0; i < i1; ++i) {
        const std::size_t at = layout.index(m, i, j);
        ASSERT_EQ(a[at], b[at])
            << what << ": matrix " << m << " element (" << i << "," << j
            << ")";
      }
    }
  }
}

// ------------------------------------------------------------ recovery ---

TEST(Recover, CleanBatchBitIdenticalToPlainFactorization) {
  const auto layout = BatchLayout::interleaved_chunked(12, 100, 32);
  AlignedBuffer<float> plain(layout.size_elems());
  generate_spd_batch<float>(layout, plain.span());
  AlignedBuffer<float> resilient(layout.size_elems());
  std::copy(plain.begin(), plain.end(), resilient.begin());

  CpuFactorOptions opt;
  const FactorResult res = factor_batch_cpu<float>(layout, plain.span(), opt);
  ASSERT_TRUE(res.ok());

  std::vector<std::int32_t> info(100, -7);
  const RecoveryReport report = factor_batch_recover<float>(
      layout, resilient.span(), opt, {}, info);
  EXPECT_TRUE(report.all_recovered());
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.nonfinite, 0);
  EXPECT_TRUE(report.matrices.empty());
  for (const auto i : info) EXPECT_EQ(i, 0);
  // A batch that needed no recovery must never be perturbed by the
  // resilient path — down to the last bit, padding included.
  for (std::size_t e = 0; e < layout.size_elems(); ++e) {
    ASSERT_EQ(plain.span()[e], resilient.span()[e]) << "element " << e;
  }
}

struct RecoverCase {
  LayoutKind kind;
  Triangle triangle;
  Unroll unroll;
};

void PrintTo(const RecoverCase& c, std::ostream* os) {
  *os << to_string(c.kind) << "_"
      << (c.triangle == Triangle::kLower ? "lower" : "upper") << "_"
      << to_string(c.unroll);
}

class RecoverGridTest : public ::testing::TestWithParam<RecoverCase> {};

TEST_P(RecoverGridTest, NonSpdMemberRecoveredHealthyOnesUntouched) {
  const RecoverCase c = GetParam();
  const int n = 8;
  const std::int64_t batch = 70;
  const std::int64_t victim = 37;
  const BatchLayout layout = make_layout(c.kind, n, batch);

  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), victim, 3);
  std::vector<double> pristine(data.begin(), data.end());

  // Reference: the same faulted batch through the plain driver.
  AlignedBuffer<double> plain(layout.size_elems());
  std::copy(pristine.begin(), pristine.end(), plain.begin());
  CpuFactorOptions opt;
  opt.triangle = c.triangle;
  opt.unroll = c.unroll;
  std::vector<std::int32_t> plain_info(batch);
  (void)factor_batch_cpu<double>(layout, plain.span(), opt, plain_info);
  ASSERT_GT(plain_info[victim], 0);

  std::vector<std::int32_t> info(batch);
  const RecoveryReport report =
      factor_batch_recover<double>(layout, data.span(), opt, {}, info);

  EXPECT_TRUE(report.all_recovered());
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.recovered, 1);
  ASSERT_EQ(report.matrices.size(), 1u);
  const MatrixRecovery& rec = report.matrices[0];
  EXPECT_EQ(rec.index, victim);
  EXPECT_EQ(rec.first_info, plain_info[victim]);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GT(rec.shift, 0.0);
  EXPECT_GE(rec.attempts, 1);
  for (std::int64_t b = 0; b < batch; ++b) EXPECT_EQ(info[b], 0);

  // Healthy matrices: bit-identical to the plain factorization.
  expect_triangles_identical<double>(layout, data.span(), plain.span(),
                                     c.triangle, {victim}, "healthy");

  // The recovered factor satisfies L·Lᵀ = A + shift·I (or Uᵀ·U).
  std::vector<double> a(n * n), f(n * n);
  extract_matrix<double>(layout, std::span<const double>(pristine), victim, a);
  extract_matrix<double>(layout, std::span<const double>(data.span()),
                         victim, f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = 0.0;
      if (c.triangle == Triangle::kLower) {
        for (int k = 0; k <= j; ++k) sum += f[i + k * n] * f[j + k * n];
      } else {
        for (int k = 0; k <= j; ++k) sum += f[k + i * n] * f[k + j * n];
      }
      const double want = a[i + j * n] + (i == j ? rec.shift : 0.0);
      EXPECT_NEAR(sum, want, 1e-8 * std::max(1.0, std::abs(want)))
          << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RecoverGridTest,
    ::testing::Values(
        RecoverCase{LayoutKind::kCanonical, Triangle::kLower,
                    Unroll::kPartial},
        RecoverCase{LayoutKind::kInterleaved, Triangle::kLower,
                    Unroll::kPartial},
        RecoverCase{LayoutKind::kInterleavedChunked, Triangle::kLower,
                    Unroll::kPartial},
        RecoverCase{LayoutKind::kInterleavedChunked, Triangle::kUpper,
                    Unroll::kPartial},
        RecoverCase{LayoutKind::kInterleavedChunked, Triangle::kLower,
                    Unroll::kFull},
        RecoverCase{LayoutKind::kInterleaved, Triangle::kUpper,
                    Unroll::kFull}));

TEST(Recover, NonFiniteInputScreenedAndHandedBackUntouched) {
  const auto layout = BatchLayout::interleaved_chunked(8, 64, 32);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());

  const std::vector<MatrixFault> plan = {
      {11, FaultKind::kNaN, 5, 2, 1.0},
      {40, FaultKind::kInf, 3, 0, 1.0},
  };
  inject_faults<float>(layout, data.span(), plan);
  std::vector<float> faulted(data.begin(), data.end());

  std::vector<std::int32_t> info(64);
  const RecoveryReport report =
      factor_batch_recover<float>(layout, data.span(), {}, {}, info);

  EXPECT_EQ(report.nonfinite, 2);
  EXPECT_EQ(report.unrecoverable, 2);
  EXPECT_FALSE(report.all_recovered());
  EXPECT_EQ(info[11], kInfoNonFinite);
  EXPECT_EQ(info[40], kInfoNonFinite);
  ASSERT_EQ(report.matrices.size(), 2u);
  EXPECT_EQ(report.matrices[0].index, 11);
  EXPECT_EQ(report.matrices[1].index, 40);
  EXPECT_EQ(report.matrices[0].first_info, kInfoNonFinite);
  EXPECT_FALSE(report.matrices[0].recovered);
  EXPECT_EQ(report.matrices[0].attempts, 0);

  // Non-finite matrices come back exactly as supplied (a shift cannot
  // repair a NaN, and silently "fixing" corrupt data would hide the bug).
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 8; ++i) {
      for (const std::int64_t b : {std::int64_t{11}, std::int64_t{40}}) {
        const std::size_t at = layout.index(b, i, j);
        const float got = data.span()[at];
        const float want = faulted[at];
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got));
        } else {
          EXPECT_EQ(got, want);
        }
      }
    }
  }
  // Everyone else factored normally.
  for (std::int64_t b = 0; b < 64; ++b) {
    if (b == 11 || b == 40) continue;
    EXPECT_EQ(info[b], 0) << "b=" << b;
  }
}

TEST(Recover, EscalatingShiftsReachTheNeededMagnitude) {
  // poison_matrix plants an identity with a -1 diagonal entry: recovery
  // needs a shift > 1, i.e. the relative schedule's last rungs. A single
  // tiny shift would never repair it; escalation must.
  const auto layout = BatchLayout::interleaved(6, 40);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), 7, 2);

  std::vector<std::int32_t> info(40);
  const RecoveryReport report =
      factor_batch_recover<double>(layout, data.span(), {}, {}, info);
  ASSERT_EQ(report.matrices.size(), 1u);
  EXPECT_TRUE(report.matrices[0].recovered);
  EXPECT_GT(report.matrices[0].shift, 1.0);
  EXPECT_GT(report.matrices[0].attempts, 3);
  EXPECT_EQ(info[7], 0);
}

TEST(Recover, UnrecoverableMatrixKeepsItsFailureCode) {
  const auto layout = BatchLayout::interleaved(6, 40);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), 3, 4);

  RecoveryOptions ropt;
  ropt.relative = false;
  ropt.shift0 = 1e-9;  // far below the needed shift of ~1
  ropt.growth = 2.0;
  ropt.max_attempts = 3;
  std::vector<std::int32_t> info(40);
  const RecoveryReport report =
      factor_batch_recover<double>(layout, data.span(), {}, ropt, info);

  EXPECT_EQ(report.unrecoverable, 1);
  EXPECT_EQ(report.recovered, 0);
  ASSERT_EQ(report.matrices.size(), 1u);
  EXPECT_FALSE(report.matrices[0].recovered);
  EXPECT_EQ(report.matrices[0].attempts, 3);
  EXPECT_EQ(info[3], 5);  // the original 1-based failing column survives
}

TEST(Recover, MaxAttemptsZeroScreensButNeverRetries) {
  const auto layout = BatchLayout::interleaved(6, 40);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), 3, 1);

  RecoveryOptions ropt;
  ropt.max_attempts = 0;
  std::vector<std::int32_t> info(40);
  const RecoveryReport report =
      factor_batch_recover<double>(layout, data.span(), {}, ropt, info);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.recovered, 0);
  EXPECT_EQ(report.matrices[0].attempts, 0);
  EXPECT_GT(info[3], 0);
}

TEST(Recover, FacadeRecoversThroughEveryExecutorPath) {
  // factorize_recover must behave identically through the facade's
  // prebuilt-tile-program path (partial unroll) and fused path (full).
  for (const Unroll unroll : {Unroll::kPartial, Unroll::kFull}) {
    TuningParams p = recommended_params(8);
    p.unroll = unroll;
    p.nb = unroll == Unroll::kPartial ? 4 : 8;
    const BatchLayout layout = BatchCholesky::make_layout(8, 90, p);
    AlignedBuffer<float> data(layout.size_elems());
    generate_spd_batch<float>(layout, data.span());
    poison_matrix<float>(layout, data.span(), 60, 2);

    const BatchCholesky chol(layout, p);
    std::vector<std::int32_t> info(90);
    const RecoveryReport report =
        chol.factorize_recover<float>(data.span(), {}, info);
    EXPECT_TRUE(report.all_recovered()) << to_string(unroll);
    EXPECT_EQ(report.recovered, 1) << to_string(unroll);
    EXPECT_EQ(info[60], 0) << to_string(unroll);
  }

  // The tiled route: past n = 64 the first pass and every shifted retry
  // run on the tiled DAG, exactly where factorize() runs, and the result
  // equals synchronous recovery byte for byte.
  const int n = 128;
  const std::int64_t batch = 70, nonspd = 7, poisoned = 66;
  for (const bool chunked : {true, false}) {
    TuningParams p = recommended_params(n);
    p.chunked = chunked;
    const BatchLayout layout = chunked
                                   ? BatchCholesky::make_layout(n, batch, p)
                                   : BatchLayout::canonical(n, batch);
    AlignedBuffer<float> data(layout.size_elems());
    generate_spd_batch<float>(layout, data.span());
    poison_matrix<float>(layout, data.span(), nonspd, 5);
    data[layout.index(poisoned, 9, 4)] = std::nanf("");
    AlignedBuffer<float> expect(layout.size_elems());
    std::copy(data.begin(), data.end(), expect.begin());

    const BatchCholesky chol(layout, p);
    ASSERT_TRUE(chol.uses_tiled()) << to_string(layout.kind());
    std::vector<std::int32_t> info(batch, -7);
    const std::uint64_t routed = obs::counter_value("tiled.routed");
    const std::uint64_t fallback = obs::counter_value("cpu.large_n_fallback");
    const RecoveryReport got =
        chol.factorize_recover<float>(data.span(), {}, info);
    if constexpr (obs::kEnabled) {
      EXPECT_GT(obs::counter_value("tiled.routed"), routed);
      EXPECT_EQ(obs::counter_value("cpu.large_n_fallback"), fallback);
    }

    CpuFactorOptions opts;
    opts.nb = p.effective_nb(n);
    opts.looking = p.looking;
    opts.unroll = p.unroll;
    opts.exec = p.exec;
    std::vector<std::int32_t> expect_info(batch, -7);
    const RecoveryReport want = factor_batch_recover<float>(
        layout, expect.span(), opts, {}, expect_info);

    EXPECT_EQ(got.recovered, 1) << to_string(layout.kind());
    EXPECT_EQ(info[poisoned], kInfoNonFinite);
    EXPECT_EQ(info, expect_info);
    EXPECT_EQ(got.nonfinite, want.nonfinite);
    EXPECT_EQ(got.failed, want.failed);
    EXPECT_EQ(got.recovered, want.recovered);
    EXPECT_EQ(got.unrecoverable, want.unrecoverable);
    ASSERT_EQ(got.matrices.size(), want.matrices.size());
    for (std::size_t k = 0; k < got.matrices.size(); ++k) {
      EXPECT_EQ(got.matrices[k].index, want.matrices[k].index);
      EXPECT_EQ(got.matrices[k].first_info, want.matrices[k].first_info);
      EXPECT_EQ(got.matrices[k].attempts, want.matrices[k].attempts);
      EXPECT_EQ(got.matrices[k].shift, want.matrices[k].shift);
      EXPECT_EQ(got.matrices[k].recovered, want.matrices[k].recovered);
    }
    EXPECT_EQ(std::memcmp(data.data(), expect.data(),
                          layout.size_elems() * sizeof(float)),
              0)
        << to_string(layout.kind());
  }
}

TEST(Recover, ScreenNonFiniteFlagsOnlyOffenders) {
  const auto layout = BatchLayout::interleaved(5, 50);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  const std::vector<MatrixFault> plan = {{20, FaultKind::kNaN, 4, 1, 1.0}};
  inject_faults<float>(layout, data.span(), plan);

  std::vector<std::int32_t> info(50, 0);
  const std::int64_t count = screen_nonfinite<float>(
      layout, data.span(), Triangle::kLower, info);
  EXPECT_EQ(count, 1);
  for (std::int64_t b = 0; b < 50; ++b) {
    EXPECT_EQ(info[b], b == 20 ? kInfoNonFinite : 0) << "b=" << b;
  }
}

// -------------------------------------------------------- executor grid ---

struct ExecCase {
  LayoutKind kind;
  const char* exec;  // as a request or record spells it (cpu_exec_from_string)
  Triangle triangle;
  Unroll unroll;
};

void PrintTo(const ExecCase& c, std::ostream* os) {
  *os << to_string(c.kind) << "_" << c.exec << "_"
      << (c.triangle == Triangle::kLower ? "lower" : "upper") << "_"
      << to_string(c.unroll);
}

class FaultGridTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(FaultGridTest, InjectedFaultsIsolatedAndInfoDeterministic) {
  const ExecCase c = GetParam();
  const int n = 8;
  const std::int64_t batch = 96;
  const BatchLayout layout = make_layout(c.kind, n, batch);

  FaultPlanOptions fopt;
  fopt.seed = 99;
  fopt.fault_rate = 0.08;
  const std::vector<MatrixFault> plan = plan_faults(batch, n, fopt);
  ASSERT_FALSE(plan.empty());

  AlignedBuffer<double> clean(layout.size_elems());
  generate_spd_batch<double>(layout, clean.span());
  AlignedBuffer<double> faulted(layout.size_elems());
  std::copy(clean.begin(), clean.end(), faulted.begin());
  inject_faults<double>(layout, faulted.span(), plan);

  CpuFactorOptions opt;
  opt.exec = cpu_exec_from_string(c.exec);
  opt.triangle = c.triangle;
  opt.unroll = c.unroll;
  opt.nb = 4;
  std::vector<std::int32_t> clean_info(batch), fault_info(batch);
  const FactorResult clean_res =
      factor_batch_cpu<double>(layout, clean.span(), opt, clean_info);
  const FactorResult fault_res =
      factor_batch_cpu<double>(layout, faulted.span(), opt, fault_info);

  ASSERT_TRUE(clean_res.ok());
  EXPECT_EQ(fault_res.failed_count,
            static_cast<std::int64_t>(plan.size()));

  // Every faulted matrix fails at a deterministic column: the poisoned
  // pivot, or the row of the off-diagonal NaN/Inf (first pivot whose
  // column-dot crosses the corruption). This is what makes `info`
  // executor- and layout-independent.
  std::vector<std::int64_t> victims;
  for (const MatrixFault& f : plan) {
    victims.push_back(f.index);
    EXPECT_EQ(fault_info[f.index], f.row + 1)
        << "victim " << f.index << " kind " << to_string(f.kind);
  }
  for (std::int64_t b = 0; b < batch; ++b) {
    if (std::find(victims.begin(), victims.end(), b) == victims.end()) {
      EXPECT_EQ(fault_info[b], 0) << "b=" << b;
    }
  }

  // Neighbors of faulted matrices — including lane-block mates processed
  // in the same SIMD sweep — must come out bit-identical to the unfaulted
  // run: corruption never leaks across the batch dimension.
  expect_triangles_identical<double>(layout, faulted.span(), clean.span(),
                                     c.triangle, victims, "neighbor");
}

// Rows spelled "spec" replay configurations recorded while the compile-time
// specialized executor existed; the spelling reads back as the interpreter.
INSTANTIATE_TEST_SUITE_P(
    Grid, FaultGridTest,
    ::testing::Values(
        ExecCase{LayoutKind::kCanonical, "spec", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleaved, "interp", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleaved, "spec", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleaved, "vectorized", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "interp", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "spec", Triangle::kLower,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "vectorized",
                 Triangle::kLower, Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "spec", Triangle::kUpper,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "vectorized",
                 Triangle::kUpper, Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "interp", Triangle::kUpper,
                 Unroll::kPartial},
        ExecCase{LayoutKind::kInterleavedChunked, "spec", Triangle::kLower,
                 Unroll::kFull},
        ExecCase{LayoutKind::kInterleaved, "spec", Triangle::kUpper,
                 Unroll::kFull}));

TEST(FaultGrid, InfoAgreesAcrossExecutorsAndLayouts) {
  // The same faulted batch, canonically generated then converted into each
  // layout, must report the same per-matrix info under every executor.
  const int n = 8;
  const std::int64_t batch = 96;
  const auto canon = BatchLayout::canonical(n, batch);
  AlignedBuffer<double> base(canon.size_elems());
  generate_spd_batch<double>(canon, base.span());
  FaultPlanOptions fopt;
  fopt.seed = 7;
  fopt.fault_rate = 0.1;
  const auto plan = plan_faults(batch, n, fopt);
  ASSERT_FALSE(plan.empty());
  inject_faults<double>(canon, base.span(), plan);

  std::vector<std::vector<std::int32_t>> infos;
  for (const LayoutKind kind :
       {LayoutKind::kCanonical, LayoutKind::kInterleaved,
        LayoutKind::kInterleavedChunked}) {
    const BatchLayout layout = make_layout(kind, n, batch);
    AlignedBuffer<double> data(layout.size_elems());
    convert_layout<double>(canon, base.span(), layout, data.span());
    fill_padding_identity<double>(layout, data.span());
    for (const CpuExec exec :
         {CpuExec::kInterpreter, CpuExec::kVectorized}) {
      AlignedBuffer<double> work(layout.size_elems());
      std::copy(data.begin(), data.end(), work.begin());
      CpuFactorOptions opt;
      opt.exec = exec;
      opt.nb = 4;
      std::vector<std::int32_t> info(batch);
      (void)factor_batch_cpu<double>(layout, work.span(), opt, info);
      infos.push_back(std::move(info));
    }
  }
  for (std::size_t i = 1; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i], infos[0]) << "configuration " << i;
  }
}

// ------------------------------------------------------- fault planning ---

TEST(FaultPlan, DeterministicAndSeedSensitive) {
  FaultPlanOptions opt;
  opt.fault_rate = 0.2;
  const auto a = plan_faults(500, 8, opt);
  const auto b = plan_faults(500, 8, opt);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].col, b[i].col);
  }
  opt.seed = 77;
  const auto d = plan_faults(500, 8, opt);
  bool differs = d.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].index != d[i].index;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ValidatesAndBounds) {
  FaultPlanOptions opt;
  opt.fault_rate = 0.0;
  EXPECT_TRUE(plan_faults(100, 8, opt).empty());
  opt.fault_rate = 1.0;
  EXPECT_EQ(plan_faults(100, 8, opt).size(), 100u);
  for (const auto& f : plan_faults(100, 8, opt)) {
    EXPECT_GE(f.row, 0);
    EXPECT_LT(f.row, 8);
    EXPECT_GE(f.col, 0);
    EXPECT_LT(f.col, 8);
    if (f.kind == FaultKind::kNegativePivot) {
      EXPECT_EQ(f.row, f.col);
    } else {
      EXPECT_GT(f.row, f.col);  // strictly off-diagonal
    }
  }
  opt.negative_pivot = opt.nan = opt.inf = false;
  EXPECT_THROW((void)plan_faults(100, 8, opt), Error);
  opt.negative_pivot = true;
  opt.fault_rate = 1.5;
  EXPECT_THROW((void)plan_faults(100, 8, opt), Error);
}

TEST(FaultPlan, InjectionKeepsMatricesSymmetric) {
  const auto layout = BatchLayout::interleaved(8, 64);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  FaultPlanOptions opt;
  opt.fault_rate = 0.3;
  const auto plan = plan_faults(64, 8, opt);
  inject_faults<double>(layout, data.span(), plan);
  for (std::int64_t b = 0; b < 64; ++b) {
    for (int j = 0; j < 8; ++j) {
      for (int i = j + 1; i < 8; ++i) {
        const double lo = data.span()[layout.index(b, i, j)];
        const double up = data.span()[layout.index(b, j, i)];
        if (std::isnan(lo)) {
          EXPECT_TRUE(std::isnan(up));
        } else {
          EXPECT_EQ(lo, up) << "b=" << b;
        }
      }
    }
  }
}

// ----------------------------------------------------------- solve guard --

TEST(SolveGuard, FailedMatricesKeepTheirRhs) {
  TuningParams p = recommended_params(8);
  const BatchLayout layout = BatchCholesky::make_layout(8, 80, p);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  poison_matrix<float>(layout, data.span(), 25, 1);

  const BatchCholesky chol(layout, p);
  std::vector<std::int32_t> info(80);
  const FactorResult res = chol.factorize<float>(data.span(), info);
  ASSERT_FALSE(res.ok());
  ASSERT_GT(info[25], 0);

  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> rhs(vlayout.size_elems());
  for (std::size_t e = 0; e < rhs.size(); ++e) {
    rhs.span()[e] = static_cast<float>(e % 13) + 0.5f;
  }
  std::vector<float> given(rhs.begin(), rhs.end());

  chol.solve<float>(data.span(), vlayout, rhs.span(), info);

  // The failed matrix's rhs is untouched instead of NaN back-substitution
  // garbage; every healthy matrix got a finite solution.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rhs.span()[vlayout.index(25, i)],
              given[vlayout.index(25, i)]);
  }
  for (std::int64_t b = 0; b < 80; ++b) {
    if (b == 25) continue;
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(std::isfinite(rhs.span()[vlayout.index(b, i)]))
          << "b=" << b;
    }
  }

  // Without the info span the old behavior (NaNs) remains, proving the
  // guard is what isolates the failure.
  AlignedBuffer<float> unguarded(vlayout.size_elems());
  std::copy(given.begin(), given.end(), unguarded.begin());
  chol.solve<float>(data.span(), vlayout, unguarded.span());
  bool any_nan = false;
  for (int i = 0; i < 8; ++i) {
    any_nan = any_nan || std::isnan(unguarded.span()[vlayout.index(25, i)]);
  }
  EXPECT_TRUE(any_nan);
}

TEST(SolveGuard, MultiRhsGuardMatchesVectorGuard) {
  TuningParams p = recommended_params(6);
  const BatchLayout layout = BatchCholesky::make_layout(6, 40, p);
  AlignedBuffer<double> data(layout.size_elems());
  generate_spd_batch<double>(layout, data.span());
  poison_matrix<double>(layout, data.span(), 10, 2);

  const BatchCholesky chol(layout, p);
  std::vector<std::int32_t> info(40);
  (void)chol.factorize<double>(data.span(), info);
  ASSERT_GT(info[10], 0);

  const auto rlayout = BatchRectLayout::matching(layout, 6, 3);
  AlignedBuffer<double> rhs(rlayout.size_elems());
  for (std::size_t e = 0; e < rhs.size(); ++e) {
    rhs.span()[e] = static_cast<double>(e % 7) - 2.0;
  }
  std::vector<double> given(rhs.begin(), rhs.end());
  chol.solve_multi<double>(data.span(), rlayout, rhs.span(), info);
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(rhs.span()[rlayout.index(10, i, j)],
                given[rlayout.index(10, i, j)]);
    }
  }
  for (std::int64_t b = 0; b < 40; ++b) {
    if (b == 10) continue;
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(std::isfinite(rhs.span()[rlayout.index(b, i, j)]));
      }
    }
  }
}

// ------------------------------------------------------- sweep resilience --

class ResilientSweepTest : public ::testing::Test {
 protected:
  static SweepOptions small_options() {
    SweepOptions opt;
    opt.sizes = {8};
    opt.batch = 4096;
    opt.space.tile_sizes = {1, 4};
    opt.space.chunk_sizes = {32, 64};
    return opt;
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/ibchol_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
           ".jsonl";
  }
};

TEST_F(ResilientSweepTest, TransientFaultRetriedAndRecorded) {
  ModelEvaluator model(KernelModel(GpuSpec::p100()), 0.05);
  FlakyEvaluator flaky(model);
  SweepOptions opt = small_options();
  const auto space = enumerate_space(8, opt.space);
  ASSERT_GE(space.size(), 2u);
  flaky.fail_point(8, space[1], /*times=*/2);
  opt.max_retries = 2;

  const SweepDataset ds = run_sweep(flaky, opt);
  ASSERT_EQ(ds.size(), space.size());
  const SweepRecord& hit = ds.records()[1];
  EXPECT_EQ(hit.params, space[1]);
  EXPECT_EQ(hit.attempts, 3);
  EXPECT_FALSE(hit.failed);
  EXPECT_TRUE(std::isfinite(hit.seconds));
  // Every other point answered first try.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i != 1) EXPECT_EQ(ds.records()[i].attempts, 1) << i;
  }
  EXPECT_EQ(flaky.faults_fired(), 2);

  // The retried value equals an unfaulted evaluation: retries re-ask the
  // evaluator, they do not fabricate data.
  ModelEvaluator fresh(KernelModel(GpuSpec::p100()), 0.05);
  EXPECT_EQ(hit.seconds, fresh.seconds(8, opt.batch, space[1]));
}

TEST_F(ResilientSweepTest, ExhaustedRetriesRecordedAsFailedPoint) {
  ModelEvaluator model(KernelModel(GpuSpec::p100()));
  FlakyEvaluator flaky(model);
  SweepOptions opt = small_options();
  const auto space = enumerate_space(8, opt.space);
  flaky.fail_point(8, space[0], /*times=*/100);
  opt.max_retries = 1;

  const SweepDataset ds = run_sweep(flaky, opt);
  ASSERT_EQ(ds.size(), space.size());
  const SweepRecord& dead = ds.records()[0];
  EXPECT_TRUE(dead.failed);
  EXPECT_EQ(dead.attempts, 2);
  EXPECT_TRUE(std::isnan(dead.seconds));
  EXPECT_TRUE(std::isnan(dead.gflops));

  // The failed point neither aborts the sweep nor poisons the reducers.
  const auto best = ds.best(8);
  ASSERT_TRUE(best.has_value());
  EXPECT_FALSE(best->failed);
  const auto winners = select_winners(ds);
  ASSERT_EQ(winners.count(8), 1u);
  EXPECT_FALSE(winners.at(8) == space[0] &&
               ds.records()[0].failed);  // winner is a real measurement
}

TEST_F(ResilientSweepTest, NaNRecordSeenFirstCannotPoisonArgmax) {
  // Regression shape: NaN compares false with everything, so a NaN-gflops
  // record encountered first used to win best() forever.
  SweepDataset ds;
  SweepRecord bad;
  bad.n = 8;
  bad.batch = 128;
  bad.seconds = std::nan("");
  bad.gflops = std::nan("");
  bad.failed = true;
  ds.add(bad);
  SweepRecord good = bad;
  good.failed = false;
  good.seconds = 1e-3;
  good.gflops = 42.0;
  good.params.nb = 2;
  ds.add(good);

  const auto best = ds.best(8);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->gflops, 42.0);
  const auto by_n = ds.best_by_n();
  ASSERT_EQ(by_n.count(8), 1u);
  EXPECT_EQ(by_n.at(8).gflops, 42.0);
  EXPECT_EQ(select_winners(ds).at(8).nb, 2);
}

TEST_F(ResilientSweepTest, DeadlineTreatsStallAsFailure) {
  ModelEvaluator model(KernelModel(GpuSpec::p100()));
  FlakyEvaluator flaky(model);
  SweepOptions opt = small_options();
  const auto space = enumerate_space(8, opt.space);
  // One evaluation stalls 500 ms against a 100 ms budget, then behaves.
  // The margins are wide so a loaded machine cannot push a healthy model
  // evaluation over the deadline.
  flaky.stall_point(8, space[0], /*stall_seconds=*/0.5, /*times=*/1);
  opt.deadline_seconds = 0.1;
  opt.max_retries = 1;
  opt.num_threads = 1;

  const SweepDataset ds = run_sweep(flaky, opt);
  EXPECT_EQ(ds.records()[0].attempts, 2);
  EXPECT_FALSE(ds.records()[0].failed);
}

// ------------------------------------------------------------- journal ----

TEST(Journal, LineRoundTripsBitIdentically) {
  SweepRecord r;
  r.n = 24;
  r.batch = 16384;
  r.params.nb = 3;
  r.params.looking = Looking::kLeft;
  r.params.chunked = false;
  r.params.chunk_size = 128;
  r.params.unroll = Unroll::kFull;
  r.params.math = MathMode::kFastMath;
  r.params.prefer_shared = true;
  r.params.exec = CpuExec::kVectorized;
  r.params.isa = SimdIsa::kAvx2;
  r.seconds = 1.0 / 3.0 * 1e-5;  // not representable in short decimal
  r.gflops = 123.45678901234567;
  r.attempts = 4;
  r.failed = false;

  const auto back = parse_journal_line(journal_line(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->n, r.n);
  EXPECT_EQ(back->batch, r.batch);
  EXPECT_EQ(back->params, r.params);
  EXPECT_EQ(back->seconds, r.seconds);  // exact, not NEAR — %.17g round-trip
  EXPECT_EQ(back->gflops, r.gflops);
  EXPECT_EQ(back->attempts, r.attempts);
  EXPECT_EQ(back->failed, r.failed);

  // Journals written before the vectorized executor carry no "isa" field;
  // such lines must still parse, defaulting the tier to kAuto.
  std::string old_line = journal_line(r);
  const std::size_t at = old_line.find(",\"isa\":\"avx2\"");
  ASSERT_NE(at, std::string::npos);
  old_line.erase(at, std::string(",\"isa\":\"avx2\"").size());
  const auto old_back = parse_journal_line(old_line);
  ASSERT_TRUE(old_back.has_value());
  EXPECT_EQ(old_back->params.isa, SimdIsa::kAuto);
  EXPECT_EQ(old_back->params.exec, CpuExec::kVectorized);

  // Journals written while the compile-time specialized executor existed
  // name it "spec"; its factors were byte-identical to the interpreter's,
  // so such lines read back as the interpreter.
  std::string spec_line = journal_line(r);
  const std::size_t ex = spec_line.find("\"exec\":\"vectorized\"");
  ASSERT_NE(ex, std::string::npos);
  spec_line.replace(ex, std::string("\"exec\":\"vectorized\"").size(),
                    "\"exec\":\"spec\"");
  const auto spec_back = parse_journal_line(spec_line);
  ASSERT_TRUE(spec_back.has_value());
  EXPECT_EQ(spec_back->params.exec, CpuExec::kInterpreter);
}

TEST(Journal, FailedRecordSerializesNaNAsNull) {
  SweepRecord r;
  r.n = 8;
  r.batch = 64;
  r.seconds = std::nan("");
  r.gflops = std::nan("");
  r.failed = true;
  r.attempts = 3;
  const std::string line = journal_line(r);
  EXPECT_NE(line.find("\"seconds\":null"), std::string::npos);
  const auto back = parse_journal_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isnan(back->seconds));
  EXPECT_TRUE(back->failed);
  EXPECT_EQ(back->attempts, 3);
}

TEST(Journal, TruncatedAndMalformedLinesSkipped) {
  SweepRecord r;
  r.n = 8;
  r.batch = 64;
  r.seconds = 1e-4;
  r.gflops = 10.0;
  const std::string good = journal_line(r);
  EXPECT_FALSE(parse_journal_line(good.substr(0, good.size() / 2))
                   .has_value());
  EXPECT_FALSE(parse_journal_line("").has_value());
  EXPECT_FALSE(parse_journal_line("not json at all").has_value());

  const std::string path = ::testing::TempDir() + "/ibchol_trunc.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << good << "\n";
    out << good.substr(0, good.size() - 7);  // crash mid-write
  }
  const auto records = read_journal(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seconds, r.seconds);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsEmptyNotFatal) {
  EXPECT_TRUE(read_journal("/nonexistent/ibchol/journal.jsonl").empty());
}

TEST(Journal, AppendAfterTornLineStartsFresh) {
  // A crash can leave the file ending in a torn fragment with no newline.
  // The writer must not glue the next record onto it — the concatenation
  // would parse as one line whose key scans read the fragment's values.
  SweepRecord r;
  r.n = 8;
  r.batch = 64;
  r.params.nb = 4;
  r.seconds = 1e-4;
  r.gflops = 10.0;
  const std::string good = journal_line(r);

  const std::string path = ::testing::TempDir() + "/ibchol_torn_append.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << good << "\n";
    out << good.substr(0, good.size() / 2);  // crash mid-write, no newline
  }
  {
    JournalWriter writer(path);
    writer.append(r);
  }
  const auto records = read_journal(path);
  ASSERT_EQ(records.size(), 2u);  // torn fragment skipped, append intact
  EXPECT_EQ(records[1].params, r.params);
  EXPECT_EQ(records[1].seconds, r.seconds);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- resume ----

TEST_F(ResilientSweepTest, ResumedSweepByteIdenticalToUninterrupted) {
  const std::string journal = temp_path("resume");
  std::remove(journal.c_str());

  // Reference: one uninterrupted run (jittered model, so values are
  // nontrivial but deterministic per point).
  ModelEvaluator ref_model(KernelModel(GpuSpec::p100()), 0.05);
  SweepOptions opt = small_options();
  const SweepDataset want = run_sweep(ref_model, opt);
  ASSERT_GE(want.size(), 4u);

  // First run journals everything; simulate a crash at ~50% by truncating
  // the journal to its first half.
  {
    ModelEvaluator model(KernelModel(GpuSpec::p100()), 0.05);
    SweepOptions jopt = opt;
    jopt.journal_path = journal;
    (void)run_sweep(model, jopt);
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), want.size());
  const std::size_t keep = lines.size() / 2;
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
    out << lines[keep].substr(0, lines[keep].size() / 2);  // torn last line
  }

  // Resume: only the missing points are evaluated, and the final dataset —
  // values and order — matches the uninterrupted run exactly.
  ModelEvaluator model(KernelModel(GpuSpec::p100()), 0.05);
  FlakyEvaluator counting(model);
  SweepOptions ropt = opt;
  ropt.resume_from = journal;
  ropt.journal_path = journal;
  std::vector<std::size_t> dones;
  ropt.progress = [&](std::size_t done, std::size_t) {
    dones.push_back(done);
  };
  const SweepDataset got = run_sweep(counting, ropt);

  EXPECT_EQ(counting.calls(),
            static_cast<std::int64_t>(want.size() - keep));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const SweepRecord& a = want.records()[i];
    const SweepRecord& b = got.records()[i];
    EXPECT_EQ(a.n, b.n) << i;
    EXPECT_EQ(a.batch, b.batch) << i;
    EXPECT_EQ(a.params, b.params) << i;
    EXPECT_EQ(a.seconds, b.seconds) << i;  // bit-identical
    EXPECT_EQ(a.gflops, b.gflops) << i;
    EXPECT_EQ(a.failed, b.failed) << i;
  }
  // Resumed points are pre-counted: progress starts past them and ends at
  // total.
  ASSERT_EQ(dones.size(), want.size() - keep);
  EXPECT_EQ(dones.front(), keep + 1);
  EXPECT_EQ(dones.back(), want.size());

  // The continued journal now covers every point: a second resume
  // re-evaluates nothing.
  ModelEvaluator model2(KernelModel(GpuSpec::p100()), 0.05);
  FlakyEvaluator counting2(model2);
  const SweepDataset again = run_sweep(counting2, ropt);
  EXPECT_EQ(counting2.calls(), 0);
  ASSERT_EQ(again.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(again.records()[i].seconds, want.records()[i].seconds) << i;
  }
  std::remove(journal.c_str());
}

TEST_F(ResilientSweepTest, StaleJournalEntriesAreIgnored) {
  const std::string journal = temp_path("stale");
  {
    // A journal from some other sweep: wrong n, wrong batch.
    SweepRecord foreign;
    foreign.n = 63;
    foreign.batch = 999;
    foreign.seconds = 1.0;
    foreign.gflops = 1.0;
    std::ofstream out(journal, std::ios::trunc);
    out << journal_line(foreign) << "\n";
  }
  ModelEvaluator model(KernelModel(GpuSpec::p100()));
  FlakyEvaluator counting(model);
  SweepOptions opt = small_options();
  opt.resume_from = journal;
  const SweepDataset ds = run_sweep(counting, opt);
  // Nothing matched: every point was evaluated fresh.
  EXPECT_EQ(counting.calls(), static_cast<std::int64_t>(ds.size()));
  for (const auto& r : ds.records()) {
    EXPECT_NE(r.n, 63);
    EXPECT_GT(r.gflops, 0.0);
  }
  std::remove(journal.c_str());
}

TEST_F(ResilientSweepTest, ParallelResumeMatchesSerial) {
  const std::string journal = temp_path("par");
  std::remove(journal.c_str());
  SweepOptions opt = small_options();
  {
    ModelEvaluator model(KernelModel(GpuSpec::p100()), 0.05);
    SweepOptions jopt = opt;
    jopt.journal_path = journal;
    jopt.num_threads = 1;
    (void)run_sweep(model, jopt);
  }
  // Drop the second half of the journal, then resume with 4 threads.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size() / 2; ++i) {
      out << lines[i] << "\n";
    }
  }
  ModelEvaluator serial_model(KernelModel(GpuSpec::p100()), 0.05);
  SweepOptions sopt = opt;
  sopt.num_threads = 1;
  const SweepDataset serial = run_sweep(serial_model, sopt);

  ModelEvaluator par_model(KernelModel(GpuSpec::p100()), 0.05);
  SweepOptions popt = opt;
  popt.resume_from = journal;
  popt.num_threads = 4;
  const SweepDataset parallel = run_sweep(par_model, popt);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel.records()[i].seconds, serial.records()[i].seconds)
        << i;
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace ibchol
