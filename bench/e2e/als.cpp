// als: AlsRecommender on generate_ratings, one iteration per operation. It is
// the paper's motivating application. It shows whether a facade gain
// survives a real caller whose time goes mostly to assembling the normal
// equations and computing RMSE.
#include <cmath>
#include <optional>

#include "als/als.hpp"
#include "als/ratings.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/batch_solve.hpp"
#include "layout/generate.hpp"
#include "workloads.hpp"

namespace ibchol::e2e {
namespace {

constexpr int kRank = 16;
constexpr int kAlsSetupRepeats = 5;  // each set-up runs a full iteration

AlsOptions als_options(std::uint64_t seed) {
  AlsOptions o;
  o.rank = kRank;
  o.iterations = 1;  // run() is one iteration: the benchmark's operation
  o.tuning = recommended_params(kRank);
  o.seed = seed;
  return o;
}

/// Every item's normal equations hold for the final factors: items are
/// updated last in an iteration, against the user factors then current.
/// Returns the largest ‖A y − b‖ / (‖A‖_F‖y‖ + ‖b‖), in double.
double item_residual(const RatingsDataset& ds, const AlsRecommender& rec) {
  const std::vector<float>& users = rec.user_factors();
  const std::vector<float>& items = rec.item_factors();
  const double lambda = rec.options().lambda;
  return parallel_max(ds.num_items, [&](std::int64_t it,
                                        std::vector<double>& s) {
    s.assign(kRank * kRank + kRank, 0.0);
    double* a = s.data();
    double* b = a + kRank * kRank;
    const auto& obs = ds.by_item[static_cast<std::size_t>(it)];
    const double reg =
        lambda * static_cast<double>(std::max<std::size_t>(obs.size(), 1));
    for (int i = 0; i < kRank; ++i) a[i * kRank + i] = reg;
    for (const std::int32_t ridx : obs) {
      const Rating& r = ds.train[static_cast<std::size_t>(ridx)];
      const float* x = users.data() + static_cast<std::size_t>(r.user) * kRank;
      for (int i = 0; i < kRank; ++i) {
        b[i] += static_cast<double>(r.value) * x[i];
        for (int j = 0; j < kRank; ++j) {
          a[i * kRank + j] += static_cast<double>(x[i]) * x[j];
        }
      }
    }
    const float* y = items.data() + static_cast<std::size_t>(it) * kRank;
    double anorm = 0.0, ynorm = 0.0, bnorm = 0.0, rnorm = 0.0;
    for (int i = 0; i < kRank; ++i) {
      double ay = 0.0;
      for (int j = 0; j < kRank; ++j) {
        ay += a[i * kRank + j] * y[j];
        anorm += a[i * kRank + j] * a[i * kRank + j];
      }
      rnorm += (ay - b[i]) * (ay - b[i]);
      ynorm += static_cast<double>(y[i]) * y[i];
      bnorm += b[i] * b[i];
    }
    // An item nobody rated has b = 0 and y = 0: a zero residual, not 0/0.
    const double scale = std::sqrt(anorm) * std::sqrt(ynorm) + std::sqrt(bnorm);
    return scale > 0.0 ? std::sqrt(rnorm) / scale : std::sqrt(rnorm);
  });
}

bool same_factors(const AlsRecommender& a, const std::vector<float>& users,
                  const std::vector<float>& items) {
  return a.user_factors() == users && a.item_factors() == items;
}

/// One-thread factor + solve of SPD batches shaped like the two sides of
/// an iteration (users × rank and items × rank), after the timed window.
double single_thread_sides(const RatingsDataset& ds, Context& ctx) {
  double total_us = 0.0;
  for (const int batch : {ds.num_users, ds.num_items}) {
    const TuningParams p = recommended_params(kRank);
    const BatchLayout layout = BatchCholesky::make_layout(kRank, batch, p);
    const BatchVectorLayout vlayout = BatchVectorLayout::matching(layout);
    Buffer<float> a0(layout.size_elems());
    Buffer<float> a(layout.size_elems());
    Buffer<float> rhs(vlayout.size_elems());
    generate_spd_batch<float>(layout, a0.span(),
                              {SpdKind::kGramPlusDiagonal, ctx.seed, 100.0});
    const BatchCholesky chol(layout, p);
    const CpuFactorOptions opts = cpu_options(p, kRank, 1);
    bool ok = true;
    std::vector<double> us;
    for (int r = 0; r < (ctx.smoke ? 2 : 9); ++r) {
      std::memcpy(a.data(), a0.data(), a.size() * 4);
      std::fill(rhs.begin(), rhs.end(), 1.0f);
      const std::int64_t t0 = now_ns();
      ok = ok && (chol.program().has_value()
                      ? factor_batch_cpu_with_program<float>(
                            layout, a.span(), *chol.program(), opts)
                      : factor_batch_cpu<float>(layout, a.span(), opts))
                     .ok();
      solve_batch_cpu<float>(layout, std::span<const float>(a.data(), a.size()),
                             vlayout, rhs.span(), p.math, 1);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    if (!ok) ctx.rep().fail("one-thread ALS-shaped factorization failed");
    total_us += median(us);
  }
  return total_us;
}

}  // namespace

void run_als(Context& ctx) {
  Report& rep = ctx.rep();
  RatingsOptions ro;
  ro.num_users = ctx.smoke ? 2000 : 20000;
  ro.num_items = ctx.smoke ? 1000 : 10000;
  ro.seed = ctx.seed;
  const RatingsDataset ds = generate_ratings(ro);
  owned_bytes() += (ds.train.size() + ds.test.size()) * sizeof(Rating) +
                   2 * ds.train.size() * sizeof(std::int32_t);

  // Set-up, repeated: parameters, the recommender, its first (cold)
  // iteration. Every repeat must reproduce the first bit for bit.
  SetupTimes st;
  std::vector<float> users1, items1;
  for (int r = 0; r < kAlsSetupRepeats; ++r) {
    std::int64_t t0 = now_ns();
    const AlsOptions o = als_options(ctx.seed);
    const double params_us = static_cast<double>(now_ns() - t0) / 1e3;
    t0 = now_ns();
    AlsRecommender rec(ds, o);
    const double construct_us = static_cast<double>(now_ns() - t0) / 1e3;
    t0 = now_ns();
    (void)rec.run();
    const double cold_us = static_cast<double>(now_ns() - t0) / 1e3;
    st.params_us.push_back(params_us);
    st.construct_us.push_back(construct_us);
    st.cold_us.push_back(cold_us);
    st.total_s.push_back((params_us + construct_us + cold_us) / 1e6);
    if (r == 0) {
      users1 = rec.user_factors();
      items1 = rec.item_factors();
    } else if (!same_factors(rec, users1, items1)) {
      rep.fail("set-up: repeated first iteration differs");
    }
  }
  st.report(rep);

  // Timed window: a fresh recommender iterates; iteration 1 must match the
  // set-up output, and every iteration must keep a finite RMSE.
  Tracer& tr = ctx.tr();
  AlsRecommender rec(ds, als_options(ctx.seed));
  std::vector<double> iter_s, factor_s, rmse_s;
  double test_rmse = 0.0;
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (std::int64_t op = 0; now_ns() < stop; ++op) {
    auto root = tr.scope("op", op);
    std::int64_t t0 = now_ns();
    std::vector<AlsIteration> h;
    {
      auto s = tr.scope("als.iteration");
      h = rec.run();
    }
    iter_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    t0 = now_ns();
    double train = 0.0;
    {
      auto s = tr.scope("als.rmse");
      train = rec.train_rmse();
      test_rmse = rec.test_rmse();
    }
    rmse_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    bool ok = h.size() == 1 && std::isfinite(train) && std::isfinite(test_rmse);
    {
      auto s = tr.scope("harness.verify");
      if (op == 0) ok = ok && same_factors(rec, users1, items1);
    }
    if (!h.empty()) factor_s.push_back(h[0].factor_seconds);
    ++rep.attempted;
    if (!ok) {
      ++rep.failed;
      rep.fail("ALS iteration " + std::to_string(op + 1) +
               " failed its check");
    }
  }
  const double residual = item_residual(ds, rec);
  if (!(residual <= 1e-3)) {
    rep.fail("item normal equations residual " + std::to_string(residual));
  }

  const double systems = static_cast<double>(ds.num_users + ds.num_items);
  rep.add("latency_p50_us", median(iter_s) * 1e6, "us");
  rep.add("systems_per_s", systems / median(iter_s), "1/s");
  rep.add_timing("als.iter_s", iter_s, "s");
  rep.add_timing("als.factor_solve_s", factor_s, "s");
  rep.add_timing("als.rmse_s", rmse_s, "s");
  rep.add("als.assembly_s",
          median(iter_s) - median(factor_s) - median(rmse_s), "s");
  rep.add("als.test_rmse", test_rmse, "rmse");
  rep.add("als.iterations", static_cast<double>(iter_s.size()), "count");
  rep.add("als.item_residual", residual, "ratio");

  std::vector<double> call_1t;
  if (ctx.traced()) call_1t.push_back(single_thread_sides(ds, ctx));
  report_runtime(rep, {median(factor_s) * 1e6}, call_1t,
                 {systems * (factor_flops(kRank) + solve_flops(kRank))});
}

}  // namespace ibchol::e2e
