// End-to-end tests of the reduced-precision storage lanes (DESIGN §12):
// the mixed chunk pipeline against the fp32 interpreter oracle, residual
// quality with iterative refinement, the self-healing escalation ladder,
// the bit-level poison screen, shifted-retry recovery, and the service's
// mixed submission paths. The ServiceMixed suite also runs under
// check.sh --tsan and --chaos.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/recover.hpp"
#include "cpu/refine.hpp"
#include "cpu/reference.hpp"
#include "cpu/simd/convert.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "svc/batch_service.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {
namespace {

constexpr std::int64_t kBatch = 192;

struct MixedFixture {
  int n;
  std::int64_t batch;
  StoragePrec prec;
  BatchLayout layout;
  AlignedBuffer<float> fp32;      // the pristine fp32 batch
  AlignedBuffer<std::uint16_t> u16;  // the same batch narrowed

  MixedFixture(int n_in, std::int64_t batch_in, StoragePrec prec_in,
               double condition = 50.0)
      : n(n_in),
        batch(batch_in),
        prec(prec_in),
        layout(BatchLayout::interleaved_chunked(n, batch, 32)) {
    fp32.resize(layout.size_elems());
    SpdOptions gen;
    gen.kind = SpdKind::kControlledCondition;
    gen.condition = condition;
    generate_spd_batch<float>(layout, fp32.span(), gen);
    u16.resize(layout.size_elems());
    renarrow();
  }

  // Re-derive the 16-bit batch from the fp32 one (after fp32-side edits
  // like poison_matrix).
  void renarrow() {
    narrow_row(resolve_convert_isa(), prec, fp32.data(), u16.data(),
               static_cast<std::int64_t>(layout.size_elems()), false);
  }

  // The fp32 oracle: widen the narrowed words (exact) and factor with the
  // op-by-op interpreter. The mixed pipeline runs the identical fp32
  // arithmetic, so its stored triangle must equal narrow(oracle) bit for
  // bit.
  AlignedBuffer<float> oracle_factor() const {
    AlignedBuffer<float> oracle(layout.size_elems());
    widen_row(resolve_convert_isa(), prec, u16.data(), oracle.data(),
              static_cast<std::int64_t>(layout.size_elems()));
    CpuFactorOptions opt;
    opt.exec = CpuExec::kInterpreter;
    EXPECT_TRUE(factor_batch_cpu<float>(layout, oracle.span(), opt).ok());
    return oracle;
  }

  std::int64_t lower_triangle_mismatches(
      std::span<const std::uint16_t> got,
      std::span<const float> oracle) const {
    std::int64_t bad = 0;
    for (std::int64_t b = 0; b < batch; ++b) {
      for (int j = 0; j < n; ++j) {
        for (int i = j; i < n; ++i) {
          const std::uint16_t want = narrow_f32(oracle[layout.index(b, i, j)],
                                                prec);
          if (got[layout.index(b, i, j)] != want) ++bad;
        }
      }
    }
    return bad;
  }
};

// ----------------------------------------------- differential oracle ----

// The mixed pipeline (triangle-only coalesced conversion, packed fp32
// compute) must be bit-identical to narrow(interpreter-fp32-factor(widen))
// across the whole size grid, for both 16-bit formats.
TEST(MixedPrec, DifferentialGridVsFp32InterpreterOracle) {
  for (StoragePrec prec : {StoragePrec::kBf16, StoragePrec::kFp16}) {
    for (int n : {4, 8, 16, 24, 32, 48, 64}) {
      MixedFixture f(n, 128, prec);
      const AlignedBuffer<float> oracle = f.oracle_factor();
      const FactorResult res =
          factor_batch_cpu_mixed(f.layout, f.u16.span(), prec, {});
      EXPECT_TRUE(res.ok()) << "n=" << n << " prec=" << to_string(prec);
      EXPECT_EQ(f.lower_triangle_mismatches(f.u16.span(), oracle.span()), 0)
          << "n=" << n << " prec=" << to_string(prec);
    }
  }
}

// Exec modes and explicit chunk sizes all funnel through the same mixed
// pipeline arithmetic — results stay bit-identical to each other.
TEST(MixedPrec, ExecModesBitIdentical) {
  MixedFixture f(16, kBatch, StoragePrec::kBf16);
  AlignedBuffer<std::uint16_t> ref(f.layout.size_elems());
  std::copy(f.u16.begin(), f.u16.end(), ref.begin());
  CpuFactorOptions opt;
  opt.exec = CpuExec::kInterpreter;
  ASSERT_TRUE(
      factor_batch_cpu_mixed(f.layout, ref.span(), f.prec, opt).ok());
  for (CpuExec exec : {CpuExec::kVectorized, CpuExec::kAuto}) {
    AlignedBuffer<std::uint16_t> alt(f.layout.size_elems());
    std::copy(f.u16.begin(), f.u16.end(), alt.begin());
    CpuFactorOptions o;
    o.exec = exec;
    ASSERT_TRUE(factor_batch_cpu_mixed(f.layout, alt.span(), f.prec, o).ok());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(alt[i], ref[i]) << "exec " << static_cast<int>(exec)
                                << " elem " << i;
    }
  }
}

TEST(MixedPrec, RejectsFp32Storage) {
  MixedFixture f(8, 64, StoragePrec::kBf16);
  EXPECT_THROW(
      factor_batch_cpu_mixed(f.layout, f.u16.span(), StoragePrec::kFp32, {}),
      Error);
}

// ------------------------------------------------- residual quality -----

// Refined mixed solves must land within a small factor of the plain fp32
// solve's residual across the size grid — the acceptance bound is 4x.
TEST(MixedPrec, RefinedResidualWithin4xOfFp32) {
  for (int n : {4, 8, 16, 32, 48, 64}) {
    MixedFixture f(n, 64, StoragePrec::kBf16, 20.0);
    const BatchVectorLayout vlayout = BatchVectorLayout::matching(f.layout);
    AlignedBuffer<float> b(vlayout.size_elems()), x(vlayout.size_elems());
    for (std::int64_t m = 0; m < f.batch; ++m) {
      for (int i = 0; i < n; ++i) b[vlayout.index(m, i)] = 1.0f;
    }

    // fp32 reference: factor + refined solve.
    AlignedBuffer<float> ffac(f.layout.size_elems());
    std::copy(f.fp32.begin(), f.fp32.end(), ffac.begin());
    ASSERT_TRUE(factor_batch_cpu<float>(f.layout, ffac.span(), {}).ok());
    const RefineResult fres = refine_batch_solve(
        f.layout, std::span<const float>(f.fp32.span()),
        std::span<const float>(ffac.span()), vlayout,
        std::span<const float>(b.span()), x.span());
    ASSERT_TRUE(fres.converged);
    std::vector<float> a(n * n), xs(n);
    const std::vector<float> ones(n, 1.0f);
    double fp32_worst = 0.0, mixed_worst = 0.0;
    for (std::int64_t m = 0; m < f.batch; ++m) {
      extract_matrix<float>(f.layout, std::span<const float>(f.fp32.span()),
                            m, a);
      for (int i = 0; i < n; ++i) xs[i] = x[vlayout.index(m, i)];
      fp32_worst = std::max(fp32_worst, residual_error<float>(n, a, xs, ones));
    }

    // Mixed lane: factor the 16-bit batch, refine against the fp32-held b.
    ASSERT_TRUE(
        factor_batch_cpu_mixed(f.layout, f.u16.span(), f.prec, {}).ok());
    const MixedRefineResult mres = refine_batch_solve_mixed(
        f.layout, std::span<const float>(f.fp32.span()),
        std::span<const std::uint16_t>(f.u16.span()), f.prec, vlayout,
        std::span<const float>(b.span()), x.span());
    EXPECT_TRUE(mres.all_converged()) << "n=" << n;
    for (std::int64_t m = 0; m < f.batch; ++m) {
      extract_matrix<float>(f.layout, std::span<const float>(f.fp32.span()),
                            m, a);
      for (int i = 0; i < n; ++i) xs[i] = x[vlayout.index(m, i)];
      mixed_worst =
          std::max(mixed_worst, residual_error<float>(n, a, xs, ones));
    }
    EXPECT_LE(mixed_worst, 4.0 * fp32_worst + 1e-7)
        << "n=" << n << " fp32=" << fp32_worst << " mixed=" << mixed_worst;
  }
}

// -------------------------------------------------- escalation ladder ---

// The healthy path through the ladder: every matrix converges in the
// first refinement pass, no recovery rungs fire, info is all zero.
TEST(MixedPrec, LadderHealthyBatchNeedsNoRecovery) {
  MixedFixture f(16, 128, StoragePrec::kBf16, 20.0);
  const BatchVectorLayout vlayout = BatchVectorLayout::matching(f.layout);
  AlignedBuffer<float> b(vlayout.size_elems()), x(vlayout.size_elems());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0f;
  ASSERT_TRUE(
      factor_batch_cpu_mixed(f.layout, f.u16.span(), f.prec, {}).ok());
  std::vector<std::int32_t> info(f.batch, -99);
  const MixedSolveReport rep = solve_batch_refine_recover_mixed(
      f.layout, std::span<const float>(f.fp32.span()), f.u16.span(), f.prec,
      vlayout, std::span<const float>(b.span()), x.span(), {}, {}, {},
      std::span<std::int32_t>(info));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.refine.stalled, 0);
  EXPECT_EQ(rep.healed, 0);
  for (std::int32_t c : info) EXPECT_EQ(c, 0);
}

// An unreachable tolerance stalls every matrix; matrices the ladder
// cannot heal keep the distinct kInfoRefineStalled code (never a pivot
// column, never silent success).
TEST(MixedPrec, LadderStallsReportRefineStalled) {
  MixedFixture f(12, 64, StoragePrec::kBf16, 20.0);
  const BatchVectorLayout vlayout = BatchVectorLayout::matching(f.layout);
  AlignedBuffer<float> b(vlayout.size_elems()), x(vlayout.size_elems());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0f;
  ASSERT_TRUE(
      factor_batch_cpu_mixed(f.layout, f.u16.span(), f.prec, {}).ok());
  RefineOptions ropt;
  ropt.tolerance = 0.0;  // no sweep can ever meet it
  ropt.max_iterations = 2;
  std::vector<std::int32_t> info(f.batch, -99);
  const MixedSolveReport rep = solve_batch_refine_recover_mixed(
      f.layout, std::span<const float>(f.fp32.span()), f.u16.span(), f.prec,
      vlayout, std::span<const float>(b.span()), x.span(), ropt, {}, {},
      std::span<std::int32_t>(info));
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.refine.stalled, f.batch);
  EXPECT_EQ(rep.unrecovered + rep.healed, f.batch);
  std::int64_t stalled_codes = 0;
  for (std::int32_t c : info) {
    EXPECT_TRUE(c == 0 || c == kInfoRefineStalled) << c;
    if (c == kInfoRefineStalled) ++stalled_codes;
  }
  EXPECT_EQ(stalled_codes, rep.unrecovered);
}

// ------------------------------------------------------ poison screen ---

// screen_nonfinite_mixed runs at the bit level on the 16-bit words: a
// single poisoned element flags exactly its matrix and leaves the rest
// untouched.
TEST(MixedPrec, ScreenFlagsPoisonedMatrixOnly) {
  for (StoragePrec prec : {StoragePrec::kBf16, StoragePrec::kFp16}) {
    MixedFixture f(12, 96, prec);
    const std::int64_t victim = 37;
    f.u16[f.layout.index(victim, 5, 3)] =
        prec == StoragePrec::kBf16 ? 0x7FC0u : 0x7E00u;  // quiet NaN
    std::vector<std::int32_t> info(f.batch, 0);
    const std::int64_t flagged = screen_nonfinite_mixed(
        f.layout, std::span<const std::uint16_t>(f.u16.span()), prec,
        Triangle::kLower, std::span<std::int32_t>(info));
    EXPECT_EQ(flagged, 1);
    for (std::int64_t m = 0; m < f.batch; ++m) {
      EXPECT_EQ(info[m], m == victim ? kInfoNonFinite : 0) << "m=" << m;
    }
  }
}

// ---------------------------------------------------------- recovery ----

// factor_batch_recover_mixed: the NaN matrix screens out with its words
// preserved, the non-SPD matrix is healed by a shifted retry, healthy
// matrices stay bit-identical to a plain mixed factorization.
TEST(MixedPrec, RecoverScreensAndHealsMixedBatch) {
  MixedFixture f(12, 96, StoragePrec::kBf16);
  const std::int64_t poisoned = 11, nonspd = 42;
  poison_matrix<float>(f.layout, f.fp32.span(), nonspd, 3);
  f.renarrow();
  f.u16[f.layout.index(poisoned, 2, 1)] = 0x7FC0u;  // NaN word

  // Reference: the same faulted batch through the plain mixed driver (the
  // two injected matrices fail there; the healthy ones factor normally).
  AlignedBuffer<std::uint16_t> expect_plain(f.layout.size_elems());
  std::copy(f.u16.begin(), f.u16.end(), expect_plain.begin());
  (void)factor_batch_cpu_mixed(f.layout, expect_plain.span(), f.prec, {});

  std::vector<std::int32_t> info(f.batch, -99);
  const RecoveryReport rep = factor_batch_recover_mixed(
      f.layout, f.u16.span(), f.prec, {}, {}, std::span<std::int32_t>(info));
  EXPECT_EQ(rep.nonfinite, 1);
  EXPECT_EQ(rep.recovered, 1);
  EXPECT_EQ(rep.unrecoverable, 1);  // the NaN matrix can never be repaired
  EXPECT_EQ(info[poisoned], kInfoNonFinite);
  EXPECT_EQ(info[nonspd], 0);
  // The poisoned matrix's words come back exactly as supplied.
  EXPECT_EQ(f.u16[f.layout.index(poisoned, 2, 1)], 0x7FC0u);
  // Healthy matrices match the plain mixed factorization bit for bit.
  const std::int64_t healthy = 7;
  for (int j = 0; j < f.n; ++j) {
    for (int i = j; i < f.n; ++i) {
      EXPECT_EQ(f.u16[f.layout.index(healthy, i, j)],
                expect_plain[f.layout.index(healthy, i, j)]);
    }
  }
}

// ----------------------------------------------------------- service ----

// submit_mixed through the pool is bit-identical to the synchronous
// factor_batch_cpu_mixed, for both formats.
TEST(ServiceMixed, SubmitMixedBitIdenticalToSynchronous) {
  svc::ServiceOptions sopts;
  sopts.num_threads = 2;
  svc::BatchService service(sopts);
  for (StoragePrec prec : {StoragePrec::kBf16, StoragePrec::kFp16}) {
    MixedFixture f(16, kBatch, prec);
    AlignedBuffer<std::uint16_t> expect(f.layout.size_elems());
    std::copy(f.u16.begin(), f.u16.end(), expect.begin());
    ASSERT_TRUE(
        factor_batch_cpu_mixed(f.layout, expect.span(), prec, {}).ok());

    svc::SubmitOptions so;
    so.storage = prec;
    svc::FactorFuture fut =
        service.submit_mixed(f.layout, f.u16.span(), {}, {}, nullptr, so);
    const FactorResult res = fut.wait();
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(fut.status(), svc::RequestStatus::kDone);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(f.u16[i], expect[i]) << to_string(prec) << " elem " << i;
    }
  }
}

// The synchronous wrapper and per-matrix info plumbing.
TEST(ServiceMixed, FactorMixedReportsPerMatrixInfo) {
  svc::ServiceOptions sopts;
  sopts.num_threads = 2;
  svc::BatchService service(sopts);
  MixedFixture f(12, 96, StoragePrec::kBf16);
  const std::int64_t nonspd = 5;
  for (int i = 0; i < f.n; ++i) {
    f.u16[f.layout.index(nonspd, i, i)] = bf16_from_f32(-4.0f);
  }
  std::vector<std::int32_t> info(f.batch, -99);
  svc::SubmitOptions so;
  so.storage = StoragePrec::kBf16;
  const FactorResult res = service.factor_mixed(
      f.layout, f.u16.span(), {}, std::span<std::int32_t>(info), nullptr, so);
  EXPECT_EQ(res.failed_count, 1);
  EXPECT_EQ(res.first_failed, nonspd);
  EXPECT_GT(info[nonspd], 0);  // 1-based failing pivot column
  EXPECT_EQ(info[0], 0);
}

// Screening quarantines a poisoned mixed batch: status kPoisoned, the
// report names the matrix, its info is kInfoNonFinite, and every healthy
// matrix is still factored.
TEST(ServiceMixed, ScreenQuarantinesPoisonedMixedBatch) {
  svc::ServiceOptions sopts;
  sopts.num_threads = 2;
  svc::BatchService service(sopts);
  MixedFixture f(12, 96, StoragePrec::kFp16);
  const std::int64_t victim = 23;
  f.u16[f.layout.index(victim, 4, 4)] = 0x7E00u;  // fp16 quiet NaN
  std::vector<std::int32_t> info(f.batch, -99);
  svc::SubmitOptions so;
  so.storage = StoragePrec::kFp16;
  so.screen = true;
  svc::FactorFuture fut = service.submit_mixed(
      f.layout, f.u16.span(), {}, std::span<std::int32_t>(info), nullptr, so);
  fut.wait();
  EXPECT_EQ(fut.status(), svc::RequestStatus::kPoisoned);
  const RecoveryReport rep = fut.recovery_report();
  EXPECT_EQ(rep.nonfinite, 1);
  ASSERT_EQ(rep.matrices.size(), 1u);
  EXPECT_EQ(rep.matrices[0].index, victim);
  EXPECT_EQ(info[victim], kInfoNonFinite);
  std::int64_t zeros = 0;
  for (std::int32_t c : info) zeros += (c == 0);
  EXPECT_EQ(zeros, f.batch - 1);
}

// The service's screened mixed path (submit_mixed + SubmitOptions::screen)
// against synchronous mixed recovery with retries off: the same info codes
// and the same 16-bit words in every matrix the screen did not flag.
TEST(ServiceMixed, RecoverMixedMatchesSynchronousRecovery) {
  MixedFixture f(12, 96, StoragePrec::kBf16);
  const std::int64_t nonspd = 17, poisoned = 40;
  poison_matrix<float>(f.layout, f.fp32.span(), nonspd, 4);
  f.renarrow();
  f.u16[f.layout.index(poisoned, 3, 1)] = 0x7FC0u;  // NaN word
  AlignedBuffer<std::uint16_t> sync_data(f.layout.size_elems());
  std::copy(f.u16.begin(), f.u16.end(), sync_data.begin());
  RecoveryOptions recovery;
  recovery.max_attempts = 0;
  std::vector<std::int32_t> sync_info(f.batch, -99);
  const RecoveryReport sync_rep = factor_batch_recover_mixed(
      f.layout, sync_data.span(), f.prec, {}, recovery,
      std::span<std::int32_t>(sync_info));

  svc::ServiceOptions sopts;
  sopts.num_threads = 2;
  svc::BatchService service(sopts);
  svc::SubmitOptions so;
  so.storage = f.prec;
  so.screen = true;
  std::vector<std::int32_t> svc_info(f.batch, -99);
  svc::FactorFuture fut = service.submit_mixed(
      f.layout, f.u16.span(), {}, std::span<std::int32_t>(svc_info), nullptr,
      so);
  (void)fut.wait();
  EXPECT_EQ(fut.status(), svc::RequestStatus::kPoisoned);
  EXPECT_EQ(fut.recovery_report().nonfinite, sync_rep.nonfinite);
  EXPECT_EQ(svc_info, sync_info);
  EXPECT_EQ(svc_info[poisoned], kInfoNonFinite);
  EXPECT_GT(svc_info[nonspd], 0);
  for (std::int64_t m = 0; m < f.batch; ++m) {
    if (m == poisoned) continue;
    for (int j = 0; j < f.n; ++j) {
      for (int i = 0; i < f.n; ++i) {
        const std::size_t at = f.layout.index(m, i, j);
        ASSERT_EQ(f.u16[at], sync_data[at])
            << "matrix " << m << " element (" << i << "," << j << ")";
      }
    }
  }
}

// -------------------------------------------------------- tuning axis ---

// StoragePrec is the seventh tuning axis: names round-trip, fp32 stays
// out of the variant key (deviation-only suffix), reduced precisions key
// distinctly.
TEST(MixedPrec, StoragePrecAxisKeysAndNames) {
  for (StoragePrec prec :
       {StoragePrec::kFp32, StoragePrec::kBf16, StoragePrec::kFp16}) {
    EXPECT_EQ(storage_prec_from_string(to_string(prec)), prec);
  }
  TuningParams base;
  TuningParams bf = base;
  bf.storage = StoragePrec::kBf16;
  TuningParams hf = base;
  hf.storage = StoragePrec::kFp16;
  EXPECT_EQ(base.key().find("bf16"), std::string::npos);
  EXPECT_NE(bf.key().find("_bf16"), std::string::npos);
  EXPECT_NE(hf.key().find("_fp16"), std::string::npos);
  EXPECT_NE(base.key(), bf.key());
  EXPECT_NE(bf.key(), hf.key());
}

// BatchCholesky's mixed entry points: factorize_mixed agrees with the
// plain driver, and a storage-tuned recommended configuration validates.
TEST(MixedPrec, BatchCholeskyMixedEntryPoints) {
  const int n = 16;
  TuningParams p = recommended_params(n);
  p.storage = StoragePrec::kBf16;
  const BatchLayout layout = BatchCholesky::make_layout(n, 128, p);
  AlignedBuffer<float> fp(layout.size_elems());
  generate_spd_batch<float>(layout, fp.span());
  AlignedBuffer<std::uint16_t> u16(layout.size_elems());
  narrow_row(resolve_convert_isa(), p.storage, fp.data(), u16.data(),
             static_cast<std::int64_t>(layout.size_elems()), false);
  // Oracle: widen the narrowed batch (exact) and factor in fp32 with the
  // interpreter under the same tuning parameters.
  AlignedBuffer<float> oracle(layout.size_elems());
  widen_row(resolve_convert_isa(), p.storage, u16.data(), oracle.data(),
            static_cast<std::int64_t>(layout.size_elems()));
  TuningParams po = p;
  po.storage = StoragePrec::kFp32;
  po.exec = CpuExec::kInterpreter;
  ASSERT_TRUE(BatchCholesky(layout, po).factorize<float>(oracle.span()).ok());

  const BatchCholesky chol(layout, p);
  const FactorResult res = chol.factorize_mixed(u16.span());
  EXPECT_TRUE(res.ok());
  std::int64_t bad = 0;
  for (std::int64_t b = 0; b < 128; ++b) {
    for (int j = 0; j < n; ++j) {
      for (int i = j; i < n; ++i) {
        if (u16[layout.index(b, i, j)] !=
            bf16_from_f32(oracle[layout.index(b, i, j)])) {
          ++bad;
        }
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace ibchol
