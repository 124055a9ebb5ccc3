// facade_small and facade_bulk: one caller in a closed loop of BatchCholesky
// factorize + solve calls. facade_small uses 256-matrix batches, where per-call
// overhead dominates. facade_bulk converts canonical batches several times the
// aggregate L2 size (the paper's throughput regime) and is the only workload
// that runs convert_layout.
#include <optional>

#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/batch_solve.hpp"
#include "cpu/thread_util.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ibchol::e2e {
namespace {

struct FacadeCase {
  FacadeCase(int n_, std::int64_t batch, bool from_canonical,
             std::uint64_t seed)
      : n(n_),
        params(recommended_params(n_)),
        layout(BatchCholesky::make_layout(n_, batch, params)),
        vlayout(BatchVectorLayout::matching(layout)),
        source_layout(from_canonical ? BatchLayout::canonical(n_, batch)
                                     : layout),
        source(Buffer<float>(source_layout.size_elems())),
        a(Buffer<float>(layout.size_elems())),
        rhs0(Buffer<float>(vlayout.size_elems())),
        rhs(Buffer<float>(vlayout.size_elems())),
        l_expect(Buffer<float>(layout.size_elems())),
        x_expect(Buffer<float>(vlayout.size_elems())),
        info(static_cast<std::size_t>(batch)) {
    generate_spd_batch<float>(source_layout, source.span(),
                              {SpdKind::kGramPlusDiagonal, seed, 100.0});
    Xoshiro256 rng(seed ^ 0x5eedULL);
    for (std::int64_t b = 0; b < layout.batch(); ++b) {
      for (int i = 0; i < n; ++i) {
        rhs0[vlayout.index(b, i)] = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }

  [[nodiscard]] bool converts() const {
    return source_layout.kind() != layout.kind();
  }
  [[nodiscard]] std::int64_t batch() const { return layout.batch(); }
  [[nodiscard]] double flops() const {
    return static_cast<double>(batch()) * (factor_flops(n) + solve_flops(n));
  }

  /// Restores the pristine input (not timed: the caller's fresh data).
  void restore() {
    if (!converts()) std::memcpy(a.data(), source.data(), a.size() * 4);
    std::memcpy(rhs.data(), rhs0.data(), rhs.size() * 4);
  }

  [[nodiscard]] bool output_matches() const {
    return same_bytes(a.data(), l_expect.data(), a.size() * 4) &&
           same_bytes(rhs.data(), x_expect.data(), rhs.size() * 4);
  }


  int n;
  TuningParams params;
  BatchLayout layout;
  BatchVectorLayout vlayout;
  BatchLayout source_layout;
  Buffer<float> source;  ///< pristine A in the caller's layout
  Buffer<float> a;       ///< working batch (factored in place)
  Buffer<float> rhs0, rhs;
  Buffer<float> l_expect, x_expect;  ///< set-up outputs
  std::vector<std::int32_t> info;
  std::optional<BatchCholesky> chol;

  std::vector<double> latency_us;  ///< whole call as the caller sees it
  std::vector<double> factor_us, solve_us, convert_us;
  std::vector<double> compute_us;  ///< factorize + solve
  std::vector<double> compute_1t_us, factor_1t_us, solve_1t_us;
};

/// Double-precision checks of the first set-up output against the pristine
/// input: ‖(A − LLᵀ)v‖ and ‖Ax − b‖ on every matrix.
void check_residuals(FacadeCase& c, Report& rep) {
  const BatchLayout& sl = c.source_layout;
  const BatchLayout& fl = c.layout;
  const auto read_a = [&](std::int64_t b, int i, int j) {
    return static_cast<double>(c.source[sl.index(b, i, j)]);
  };
  const auto read_l = [&](std::int64_t b, int i, int j) {
    return static_cast<double>(c.a[fl.index(b, i, j)]);
  };
  const auto read_x = [&](std::int64_t b, int i) {
    return static_cast<double>(c.rhs[c.vlayout.index(b, i)]);
  };
  const auto read_b = [&](std::int64_t b, int i) {
    return static_cast<double>(c.rhs0[c.vlayout.index(b, i)]);
  };
  const double fr = factor_residual(c.n, c.batch(), read_a, read_l);
  const double sr = solve_residual(c.n, c.batch(), read_a, read_x, read_b);
  if (!(fr <= kFp32Tolerance) || !(sr <= kFp32Tolerance)) {
    rep.fail("n=" + std::to_string(c.n) + ": residual factor=" +
             std::to_string(fr) + " solve=" + std::to_string(sr));
  }
}

/// convert (facade_bulk only) + factorize + solve, as the caller issues it.
FactorResult facade_call(FacadeCase& c, Tracer& tr, double* convert_us,
                         double* factor_us, double* solve_us) {
  const std::int64_t t0 = now_ns();
  if (c.converts()) {
    auto s = tr.scope("layout.convert");
    convert_layout<float>(c.source_layout, c.source.span(), c.layout,
                          c.a.span());
  }
  const std::int64_t t1 = now_ns();
  FactorResult r;
  {
    auto s = tr.scope("core.factorize");
    r = c.chol->factorize<float>(c.a.span(), c.info);
  }
  const std::int64_t t2 = now_ns();
  {
    auto s = tr.scope("core.solve");
    c.chol->solve<float>(std::span<const float>(c.a.data(), c.a.size()),
                         c.vlayout, c.rhs.span(), c.info);
  }
  const std::int64_t t3 = now_ns();
  *convert_us = static_cast<double>(t1 - t0) / 1e3;
  *factor_us = static_cast<double>(t2 - t1) / 1e3;
  *solve_us = static_cast<double>(t3 - t2) / 1e3;
  return r;
}

void setup(std::vector<FacadeCase>& cases, Context& ctx, SetupTimes& st) {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double total_us = 0.0;
    for (FacadeCase& c : cases) {
      c.restore();
      std::int64_t t0 = now_ns();
      c.params = recommended_params(c.n);
      const double params_us = static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      c.chol.emplace(BatchCholesky::make_layout(c.n, c.batch(), c.params),
                     c.params);
      const double construct_us = static_cast<double>(now_ns() - t0) / 1e3;
      double cu = 0, fu = 0, su = 0;
      const bool ok =
          factored_cleanly(facade_call(c, ctx.tr(), &cu, &fu, &su), c.info);
      const double cold_us = cu + fu + su;
      st.params_us.push_back(params_us);
      st.construct_us.push_back(construct_us);
      st.cold_us.push_back(cold_us);
      total_us += params_us + construct_us + cold_us;
      if (!ok) ctx.rep().fail("set-up: factorization reported failure");
      if (rep == 0) {
        check_residuals(c, ctx.rep());
        std::memcpy(c.l_expect.data(), c.a.data(), c.a.size() * 4);
        std::memcpy(c.x_expect.data(), c.rhs.data(), c.rhs.size() * 4);
      } else if (!c.output_matches()) {
        ctx.rep().fail("set-up: repeated cold call differs, n=" +
                       std::to_string(c.n));
      }
    }
    st.total_s.push_back(total_us / 1e6);
  }
}

/// The one-thread synchronous drivers on the same inputs, after the timed
/// window: factor_batch_cpu(num_threads=1) + solve_batch_cpu. Outputs must
/// be bit-identical to the facade's (thread count never changes results).
void run_single_thread(std::vector<FacadeCase>& cases, Context& ctx,
                       double budget_s) {
  for (FacadeCase& c : cases) {
    const CpuFactorOptions opts = cpu_options(c.params, c.n, 1);
    bool ok = true;
    const auto one = [&] {
      c.restore();
      if (c.converts()) {
        convert_layout<float>(c.source_layout, c.source.span(), c.layout,
                              c.a.span());
      }
      const std::int64_t t0 = now_ns();
      const FactorResult r =
          c.chol->program().has_value()
              ? factor_batch_cpu_with_program<float>(
                    c.layout, c.a.span(), *c.chol->program(), opts, c.info)
              : factor_batch_cpu<float>(c.layout, c.a.span(), opts, c.info);
      const std::int64_t t1 = now_ns();
      solve_batch_cpu<float>(c.layout,
                             std::span<const float>(c.a.data(), c.a.size()),
                             c.vlayout, c.rhs.span(), c.params.math, 1);
      const std::int64_t t2 = now_ns();
      c.factor_1t_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      c.solve_1t_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      c.compute_1t_us.push_back(static_cast<double>(t2 - t0) / 1e3);
      ok = ok && factored_cleanly(r, c.info) && c.output_matches();
    };
    // 21 repeats at least: a reported median needs 10 samples beyond it.
    repeat_for(budget_s / static_cast<double>(cases.size()), 21, 200, one);
    if (!ok) {
      ctx.rep().fail("one-thread driver output differs, n=" +
                     std::to_string(c.n));
    }
  }
}

void run_facade(Context& ctx, const std::vector<int>& sizes,
                std::int64_t batch_bytes, std::int64_t fixed_batch,
                bool from_canonical, const std::string& prefix) {
  std::vector<FacadeCase> cases;
  cases.reserve(sizes.size());
  for (const int n : sizes) {
    const std::int64_t batch =
        fixed_batch > 0 ? fixed_batch
                        : batch_bytes / (static_cast<std::int64_t>(n) * n * 4);
    cases.emplace_back(n, batch, from_canonical,
                       ctx.seed * 1000003ULL + static_cast<std::uint64_t>(n));
  }

  SetupTimes st;
  setup(cases, ctx, st);
  st.report(ctx.rep());

  // Timed window: cycle the sizes, one call after another.
  Tracer& tr = ctx.tr();
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (std::int64_t op = 0; now_ns() < stop; ++op) {
    FacadeCase& c = cases[static_cast<std::size_t>(op) % cases.size()];
    double cu = 0, fu = 0, su = 0;
    bool ok = false;
    {
      auto root = tr.scope("op", op);
      {
        auto s = tr.scope("harness.restore");
        c.restore();
      }
      const FactorResult r = facade_call(c, tr, &cu, &fu, &su);
      auto s = tr.scope("harness.verify");
      ok = factored_cleanly(r, c.info) && c.output_matches();
    }
    ++ctx.rep().attempted;
    if (!ok) {
      ++ctx.rep().failed;
      ctx.rep().fail("timed output differs from set-up output, n=" +
                     std::to_string(c.n));
    }
    c.latency_us.push_back(cu + fu + su);
    c.convert_us.push_back(cu);
    c.factor_us.push_back(fu);
    c.solve_us.push_back(su);
    c.compute_us.push_back(fu + su);
  }

  if (ctx.traced()) run_single_thread(cases, ctx, ctx.smoke ? 0.05 : 1.5);

  Report& rep = ctx.rep();
  std::vector<double> p50s, call, call_1t, flops;
  double systems = 0.0, cycle_us = 0.0;
  for (FacadeCase& c : cases) {
    const std::string tag = prefix + ".n" + std::to_string(c.n);
    rep.add_timing(tag + ".latency_us", c.latency_us, "us");
    rep.add_timing("cpu.factor_us.n" + std::to_string(c.n), c.factor_us, "us");
    rep.add_timing("cpu.solve_us.n" + std::to_string(c.n), c.solve_us, "us");
    p50s.push_back(median(c.latency_us));
    systems += static_cast<double>(c.batch());
    cycle_us += p50s.back();
    call.push_back(median(c.compute_us));
    flops.push_back(c.flops());
    const double mat_bytes = static_cast<double>(c.layout.size_elems()) * 4;
    rep.add("cpu.factor_gflops.n" + std::to_string(c.n),
            static_cast<double>(c.batch()) * factor_flops(c.n) /
                median(c.factor_us) / 1e3,
            "GFLOP/s");
    rep.add("cpu.solve_gbps.n" + std::to_string(c.n),
            (mat_bytes + 2.0 * static_cast<double>(c.vlayout.size_elems()) * 4) /
                median(c.solve_us) / 1e3,
            "GB/s");
    if (c.converts()) {
      rep.add("layout.convert_gbps.n" + std::to_string(c.n),
              2.0 * mat_bytes / median(c.convert_us) / 1e3, "GB/s");
    }
    if (!c.compute_1t_us.empty()) {
      const double one = median(c.compute_1t_us);
      call_1t.push_back(one);
      rep.add_timing("cpu.factor_1t_us.n" + std::to_string(c.n),
                     c.factor_1t_us, "us");
      rep.add_timing("cpu.solve_1t_us.n" + std::to_string(c.n), c.solve_1t_us,
                     "us");
      rep.add("cpu.parallel_overhead_us.n" + std::to_string(c.n),
              median(c.compute_us) - one, "us");
      rep.add("cpu.scaling_eff.n" + std::to_string(c.n),
              one / (static_cast<double>(cached_default_threads()) *
                     median(c.compute_us)),
              "ratio");
    }
  }
  rep.add("latency_p50_us", geomean(p50s), "us");
  // One cycle over the sizes at their median call times.
  rep.add("systems_per_s", systems / (cycle_us / 1e6), "1/s");
  report_runtime(rep, call, call_1t, flops);
}

}  // namespace

void run_facade_small(Context& ctx) {
  run_facade(ctx, {4, 8, 16, 32}, 0, 256, /*from_canonical=*/false,
             "facade");
}

void run_facade_bulk(Context& ctx) {
  // 16 MiB per batch, 2x the 8 MiB aggregate L2 of the 4-core reference
  // host: source and destination stream through the shared L3 on every call.
  const std::int64_t bytes = ctx.smoke ? (std::int64_t{1} << 20)
                                       : (std::int64_t{16} << 20);
  run_facade(ctx, {8, 16, 32, 64}, bytes, 0, /*from_canonical=*/true, "bulk");
}

}  // namespace ibchol::e2e
