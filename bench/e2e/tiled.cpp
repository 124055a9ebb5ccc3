// tiled_large: one caller in a closed loop of BatchCholesky::factorize on
// canonical (column-major) batches of n = 128…1024, which the facade routes to
// the tiled task DAG on the service pool. It is the only workload where the
// tiled DAG and its pack/unpack stages do the work.
#include <optional>

#include "core/batch_cholesky.hpp"
#include "layout/generate.hpp"
#include "obs/histogram.hpp"
#include "tiled/dag.hpp"
#include "tiled/reference.hpp"
#include "workloads.hpp"

namespace ibchol::e2e {
namespace {

TuningParams canonical_params(int n) {
  TuningParams p = recommended_params(n);
  p.chunked = false;  // canonical layout: the caller's column-major matrices
  return p;
}

struct TiledCase {
  TiledCase(int n_, std::int64_t batch, std::uint64_t seed)
      : n(n_),
        params(canonical_params(n_)),
        layout(BatchLayout::canonical(n_, batch)),
        a0(Buffer<float>(layout.size_elems())),
        a(Buffer<float>(layout.size_elems())),
        expect(Buffer<float>(layout.size_elems())),
        info(static_cast<std::size_t>(batch)) {
    // Diagonally dominant SPD: O(n²) per matrix to generate, where the
    // Gram construction would cost more than the factorization itself.
    generate_spd_batch<float>(layout, a0.span(),
                              {SpdKind::kDiagonallyDominant, seed, 100.0});
  }

  [[nodiscard]] std::int64_t batch() const { return layout.batch(); }
  [[nodiscard]] std::size_t bytes() const { return layout.size_elems() * 4; }
  void restore() { std::memcpy(a.data(), a0.data(), bytes()); }

  int n;
  TuningParams params;
  BatchLayout layout;
  Buffer<float> a0, a, expect;
  std::vector<std::int32_t> info;
  std::optional<BatchCholesky> chol;
  std::vector<double> latency_us;
};

/// First set-up output against the documented bit-identical oracle
/// (potrf_tiled_reference with the facade's tile size, one matrix at a
/// time) and against A in double precision.
void check_against_reference(TiledCase& c, Report& rep) {
  const int nb = tiled::recommended_nb(c.n, static_cast<int>(sizeof(float)));
  const std::size_t mat = static_cast<std::size_t>(c.n) * c.n;
  std::vector<float> ref(mat);
  bool identical = true;
  for (std::int64_t b = 0; b < c.batch(); ++b) {
    std::memcpy(ref.data(), c.a0.data() + b * mat, mat * 4);
    if (tiled::potrf_tiled_reference<float>(c.n, nb, ref.data(), c.n) != 0 ||
        !same_bytes(ref.data(), c.a.data() + b * mat, mat * 4)) {
      identical = false;
    }
  }
  if (!identical) {
    rep.fail("tiled output differs from potrf_tiled_reference, n=" +
             std::to_string(c.n));
  }
  const double fr = factor_residual(
      c.n, c.batch(),
      [&](std::int64_t b, int i, int j) {
        return static_cast<double>(c.a0[c.layout.index(b, i, j)]);
      },
      [&](std::int64_t b, int i, int j) {
        return static_cast<double>(c.a[c.layout.index(b, i, j)]);
      });
  if (!(fr <= kFp32Tolerance)) {
    rep.fail("tiled residual " + std::to_string(fr) + ", n=" +
             std::to_string(c.n));
  }
}

/// After the timed window: the single-threaded reference on the same
/// matrices, and (n ≤ 256) the small-n path a lower routing threshold would
/// pick, the facade with exec = kInterpreter.
void run_baselines(std::vector<TiledCase>& cases, Context& ctx,
                   std::vector<double>& call_1t) {
  Report& rep = ctx.rep();
  const double budget_s = ctx.smoke ? 0.02 : 0.5;
  for (TiledCase& c : cases) {
    const int nb = tiled::recommended_nb(c.n, static_cast<int>(sizeof(float)));
    const std::size_t mat = static_cast<std::size_t>(c.n) * c.n;
    const double flops = static_cast<double>(c.batch()) * factor_flops(c.n);
    bool ok = true;
    std::vector<double> ref_us;
    repeat_for(budget_s, 2, 20, [&] {
      c.restore();
      const std::int64_t t0 = now_ns();
      for (std::int64_t b = 0; b < c.batch(); ++b) {
        ok = ok && tiled::potrf_tiled_reference<float>(
                       c.n, nb, c.a.data() + b * mat, c.n) == 0;
      }
      ref_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    });
    ok = ok && same_bytes(c.a.data(), c.expect.data(), c.bytes());
    if (!ok) rep.fail("tiled reference rerun differs, n=" + std::to_string(c.n));
    call_1t.push_back(median(ref_us));
    rep.add("tiled.ref_gflops.n" + std::to_string(c.n),
            flops / call_1t.back() / 1e3, "GFLOP/s");
    rep.add("tiled.speedup_vs_ref.n" + std::to_string(c.n),
            call_1t.back() / median(c.latency_us), "x");
    if (c.n > 256) continue;
    TuningParams small = c.params;
    small.exec = CpuExec::kInterpreter;
    const BatchCholesky interp(c.layout, small);
    std::vector<double> small_us;
    repeat_for(budget_s, 2, 20, [&] {
      c.restore();
      const std::int64_t t0 = now_ns();
      ok = ok && interp.factorize<float>(c.a.span(), c.info).ok();
      small_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    });
    const double fr = factor_residual(
        c.n, c.batch(),
        [&](std::int64_t b, int i, int j) {
          return static_cast<double>(c.a0[c.layout.index(b, i, j)]);
        },
        [&](std::int64_t b, int i, int j) {
          return static_cast<double>(c.a[c.layout.index(b, i, j)]);
        });
    if (!ok || !(fr <= kFp32Tolerance)) {
      rep.fail("small-n path failed or inaccurate, n=" + std::to_string(c.n));
    }
    rep.add("tiled.small_path_gflops.n" + std::to_string(c.n),
            flops / median(small_us) / 1e3, "GFLOP/s");
  }
}

}  // namespace

void run_tiled_large(Context& ctx) {
  Report& rep = ctx.rep();
  // 16 MiB per batch: 256, 64, 16 and 4 matrices.
  const std::int64_t bytes = ctx.smoke ? (std::int64_t{4} << 20)
                                       : (std::int64_t{16} << 20);
  std::vector<TiledCase> cases;
  cases.reserve(4);
  for (const int n : {128, 256, 512, 1024}) {
    cases.emplace_back(n, bytes / (std::int64_t{4} * n * n),
                       ctx.seed * 1000003ULL + static_cast<std::uint64_t>(n));
  }

  SetupTimes st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double total_us = 0.0;
    for (TiledCase& c : cases) {
      c.restore();
      std::int64_t t0 = now_ns();
      c.params = canonical_params(c.n);
      const double params_us = static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      c.chol.emplace(c.layout, c.params);
      const double construct_us = static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      const FactorResult res = c.chol->factorize<float>(c.a.span(), c.info);
      const double cold_us = static_cast<double>(now_ns() - t0) / 1e3;
      st.params_us.push_back(params_us);
      st.construct_us.push_back(construct_us);
      st.cold_us.push_back(cold_us);
      total_us += params_us + construct_us + cold_us;
      if (!c.chol->uses_tiled()) {
        rep.fail("facade did not route n=" + std::to_string(c.n) +
                 " to the tiled path");
      }
      if (!factored_cleanly(res, c.info)) {
        rep.fail("set-up: tiled factorization failed");
      }
      if (r == 0) {
        check_against_reference(c, rep);
        std::memcpy(c.expect.data(), c.a.data(), c.bytes());
      } else if (!same_bytes(c.a.data(), c.expect.data(), c.bytes())) {
        rep.fail("set-up: repeated cold call differs, n=" + std::to_string(c.n));
      }
    }
    st.total_s.push_back(total_us / 1e6);
  }
  st.report(rep);

  obs::reset_histograms();
  Tracer& tr = ctx.tr();
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (std::int64_t op = 0; now_ns() < stop; ++op) {
    TiledCase& c = cases[static_cast<std::size_t>(op) % cases.size()];
    double us = 0.0;
    bool ok = false;
    {
      auto root = tr.scope("op", op);
      {
        auto s = tr.scope("harness.restore");
        c.restore();
      }
      const std::int64_t t0 = now_ns();
      FactorResult res;
      {
        auto s = tr.scope("core.factorize");
        res = c.chol->factorize<float>(c.a.span(), c.info);
      }
      us = static_cast<double>(now_ns() - t0) / 1e3;
      auto s = tr.scope("harness.verify");
      ok = factored_cleanly(res, c.info) &&
           same_bytes(c.a.data(), c.expect.data(), c.bytes());
    }
    ++rep.attempted;
    if (!ok) {
      ++rep.failed;
      rep.fail("timed output differs from set-up output, n=" +
               std::to_string(c.n));
    }
    c.latency_us.push_back(us);
  }

  // Per-stage shares of the DAG task time during the window, from the
  // library's own tiled.*_ns histograms (sums across workers).
  const char* kinds[] = {"pack", "potrf", "trsm", "syrk", "gemm", "unpack"};
  double kind_sum[6] = {};
  double all = 0.0;
  for (int k = 0; k < 6; ++k) {
    kind_sum[k] = static_cast<double>(
        obs::histogram(std::string("tiled.") + kinds[k] + "_ns").snapshot().sum);
    all += kind_sum[k];
  }
  for (int k = 0; k < 6; ++k) {
    rep.add(std::string("obs.tiled.") + kinds[k] + "_share",
            all > 0.0 ? kind_sum[k] / all : 0.0, "ratio");
  }

  std::vector<double> p50s, call_1t, flops;
  double systems = 0.0, cycle_us = 0.0;
  for (TiledCase& c : cases) {
    const double f = static_cast<double>(c.batch()) * factor_flops(c.n);
    flops.push_back(f);
    p50s.push_back(median(c.latency_us));
    systems += static_cast<double>(c.batch());
    cycle_us += p50s.back();
    rep.add_timing("tiled.latency_us.n" + std::to_string(c.n), c.latency_us,
                   "us");
    rep.add("tiled.gflops.n" + std::to_string(c.n),
            f / median(c.latency_us) / 1e3, "GFLOP/s");
  }
  if (ctx.traced()) run_baselines(cases, ctx, call_1t);
  rep.add("latency_p50_us", geomean(p50s), "us");
  // One cycle over the sizes at their median call times.
  rep.add("systems_per_s", systems / (cycle_us / 1e6), "1/s");
  report_runtime(rep, p50s, call_1t, flops);
}

}  // namespace ibchol::e2e
