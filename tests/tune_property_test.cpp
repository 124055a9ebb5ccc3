// Property tests for the instant-tuning stack (ISSUE 10 satellite 1 +
// acceptance grid).
//
// The central property: for any seeded (n, batch, layout domain, storage)
// point, the calibrated model's top-K plan — measured on the memoized
// ModelEvaluator with deterministic per-point noise — must contain a
// configuration within 10% of the exhaustive sweep's winner, while probing
// at most a quarter of the space (once the space is big enough for a
// quarter to mean anything). The evaluator's jitter is seeded by the
// tuning point itself, so every run of this suite sees the identical
// "measurement" landscape and a pass is pinned forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autotune/analyze.hpp"
#include "autotune/evaluator.hpp"
#include "autotune/space.hpp"
#include "core/batch_cholesky.hpp"
#include "core/tuned_overrides.hpp"
#include "cpu/chunk_pipeline.hpp"
#include "cpu/simd/isa.hpp"
#include "forest/forest.hpp"
#include "kernels/counts.hpp"
#include "kernels/options.hpp"
#include "obs/counters.hpp"
#include "tune/host_probe.hpp"
#include "tune/instant.hpp"
#include "tune/probe_plan.hpp"

namespace ibchol {
namespace {

using tune::InstantOptions;
using tune::InstantTuner;
using tune::ProbePlan;
using tune::ProbeResult;

// Measurement-noise magnitude for the ModelEvaluator backend. Matches the
// run-to-run jitter a wall-clock backend shows without ever letting a
// lucky draw jump the 10% agreement band.
constexpr double kNoiseSigma = 0.03;

// One calibrated model for the whole suite. Micro-probes are skipped: the
// agreement property compares the model against an evaluator built from
// the *same* model, so calibration constants cancel and the test stays
// deterministic across hosts.
const KernelModel& test_model() {
  static const KernelModel model =
      tune::calibrated_kernel_model(tune::detect_host_profile(false));
  return model;
}

double gflops_of(int n, std::int64_t batch, double seconds) {
  return static_cast<double>(batch) * nominal_flops_per_matrix(n) / seconds /
         1e9;
}

struct PropertyPoint {
  int n;
  std::int64_t batch;
  SpaceOptions space;
  std::string label;
};

// The seeded property grid: ≥ 50 distinct (n, batch, layout domain,
// storage) points. Deterministic by construction (no RNG needed — the
// cross product IS the seed).
std::vector<PropertyPoint> property_points() {
  std::vector<PropertyPoint> points;
  const std::vector<int> sizes = {4, 8, 12, 16, 24, 32, 40, 48, 64};
  const std::vector<std::int64_t> batches = {2048, 16384};
  const std::vector<StoragePrec> precs = {
      StoragePrec::kFp32, StoragePrec::kBf16, StoragePrec::kFp16};
  for (const int n : sizes) {
    for (const std::int64_t batch : batches) {
      for (const StoragePrec prec : precs) {
        SpaceOptions space = tune::default_instant_space();
        space.storage_precs = {prec};
        // Alternate the layout domain across the grid so "any", "chunked",
        // and "simple" all appear.
        const std::size_t i = points.size();
        if (i % 3 == 1) space.include_non_chunked = false;  // chunked only
        if (i % 3 == 2) space.chunk_sizes.clear();          // simple only
        PropertyPoint p;
        p.n = n;
        p.batch = batch;
        p.space = space;
        p.label = "n=" + std::to_string(n) +
                  " batch=" + std::to_string(batch) + " prec=" +
                  to_string(prec) + " domain=" + std::to_string(i % 3);
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

// Exhaustive winner + plan agreement for one point; shared by the property
// sweep and the acceptance grid.
void check_point(const PropertyPoint& pt, ModelEvaluator& eval) {
  const std::vector<TuningParams> space = enumerate_space(pt.n, pt.space);
  ASSERT_FALSE(space.empty()) << pt.label;
  double best_seconds = 1e300;
  for (const TuningParams& p : space) {
    best_seconds = std::min(best_seconds, eval.seconds(pt.n, pt.batch, p));
  }
  const double best_gflops = gflops_of(pt.n, pt.batch, best_seconds);

  const ProbePlan plan =
      tune::plan_probes(test_model(), pt.n, pt.batch, pt.space, 8);
  EXPECT_EQ(plan.space_points, space.size()) << pt.label;
  const ProbeResult probed = tune::run_probe_plan(eval, plan);

  // Probe-count bounds: never more than K or the space itself, and once
  // the space is large enough for "a quarter" to exceed K, strictly
  // ≤ 25% of the sweep — the point of model-guided probing.
  const int sp = static_cast<int>(space.size());
  EXPECT_LE(probed.evaluations, std::min(sp, 8)) << pt.label;
  if (sp >= 32) {
    EXPECT_LE(probed.evaluations * 4, sp) << pt.label;
  }

  // Within 10% of the exhaustive winner's rate.
  EXPECT_GE(probed.winner.gflops, 0.90 * best_gflops)
      << pt.label << ": probe winner " << probed.winner.gflops
      << " GF/s vs exhaustive " << best_gflops << " GF/s";
}

TEST(TuneProperty, ModelGuidedTopKMatchesExhaustiveSweep) {
  const std::vector<PropertyPoint> points = property_points();
  ASSERT_GE(points.size(), 50u);
  ModelEvaluator eval(test_model(), kNoiseSigma);
  for (const PropertyPoint& pt : points) check_point(pt, eval);
}

// The ISSUE 10 acceptance grid: every featured n, default instant domain,
// paper batch, plus the probe-count bound, in one focused test.
TEST(TuneProperty, AcceptanceGridWithinTenPercent) {
  ModelEvaluator eval(test_model(), kNoiseSigma);
  for (const int n : {4, 8, 16, 32, 48, 64}) {
    PropertyPoint pt;
    pt.n = n;
    pt.batch = 16384;
    pt.space = tune::default_instant_space();
    pt.label = "acceptance n=" + std::to_string(n);
    check_point(pt, eval);
  }
}

// Cache hit must hand back bit-identical TuningParams to the miss path,
// and a warm cache must answer without a single evaluator probe.
TEST(TuneProperty, CacheHitBitIdenticalToMissPathAndProbeFree) {
  const std::string path = testing::TempDir() + "tune_property_cache.jsonl";
  std::remove(path.c_str());

  InstantOptions opts;
  opts.cache_path = path;
  opts.batch = 4096;
  opts.install_overrides = false;
  const tune::HostProfile profile = tune::detect_host_profile(false);

  ModelEvaluator eval(test_model(), kNoiseSigma);
  obs::reset_counters();
  TuningParams cold;
  {
    InstantTuner tuner(eval, opts, profile);
    cold = tuner.params_for(16);
  }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.cache_miss"), 1u);
    EXPECT_GT(obs::counter_value("tune.probe"), 0u);
  }

  // A fresh tuner (stand-in for a fresh process: nothing shared but the
  // file) must answer from the cache alone.
  ModelEvaluator eval2(test_model(), kNoiseSigma);
  obs::reset_counters();
  InstantTuner warm(eval2, opts, profile);
  const TuningParams hit = warm.params_for(16);
  EXPECT_EQ(hit, cold);
  EXPECT_EQ(hit.key(), cold.key());
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.cache_hit"), 1u);
    EXPECT_EQ(obs::counter_value("tune.cache_miss"), 0u);
    EXPECT_EQ(obs::counter_value("tune.probe"), 0u);
  }
  std::remove(path.c_str());
}

// Warm winners must flow into recommended_params (the facade's entry
// point) via the override table, and clear back out on uninstall.
TEST(TuneProperty, InstalledOverridesServeRecommendedParams) {
  const std::string path =
      testing::TempDir() + "tune_property_overrides.jsonl";
  std::remove(path.c_str());
  InstantOptions opts;
  opts.cache_path = path;
  opts.batch = 4096;
  opts.install_overrides = true;
  const tune::HostProfile profile = tune::detect_host_profile(false);
  ModelEvaluator eval(test_model(), kNoiseSigma);
  {
    InstantTuner tuner(eval, opts, profile);
    const TuningParams tuned = tuner.params_for(24);
    obs::reset_counters();
    const TuningParams served = recommended_params(24);
    EXPECT_EQ(served, tuned);
    if constexpr (obs::kEnabled) {
      EXPECT_GE(obs::counter_value("tune.override_hit"), 1u);
      // Serving from the installed table runs zero evaluator probes.
      EXPECT_EQ(obs::counter_value("tune.probe"), 0u);
    }
    // Sizes the tuner never saw keep the paper defaults.
    const TuningParams untouched = recommended_params(12);
    EXPECT_EQ(untouched.exec, CpuExec::kAuto);
  }
  InstantTuner::uninstall();
  obs::reset_counters();
  (void)recommended_params(24);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.override_hit"), 0u);
  }
  std::remove(path.c_str());
}

// Drift: sustained observations far off the cached expectation mark the
// size, and poll_drift re-tunes it.
TEST(TuneProperty, DriftDetectionTriggersRetune) {
  InstantOptions opts;
  opts.cache_path = "/dev/null";  // loads empty; appends vanish
  opts.batch = 4096;
  opts.install_overrides = false;
  opts.min_drift_samples = 4;
  const tune::HostProfile profile = tune::detect_host_profile(false);
  ModelEvaluator eval(test_model(), kNoiseSigma);
  InstantTuner tuner(eval, opts, profile);

  const TuningParams tuned = tuner.params_for(16);
  EXPECT_TRUE(tuner.drifted().empty());

  // Healthy observations (exactly the expectation) never trip the wire.
  const double expected = eval.seconds(16, 4096, tuned);
  for (int i = 0; i < 8; ++i) tuner.observe(16, 4096, expected);
  EXPECT_TRUE(tuner.drifted().empty());

  // A 2x slowdown (far past the 25% threshold) over min_drift_samples
  // observations must mark the size drifted...
  obs::reset_counters();
  for (int i = 0; i < 16; ++i) tuner.observe(16, 4096, 2.0 * expected);
  const std::vector<int> marked = tuner.drifted();
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0], 16);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.drift_detected"), 1u);
  }

  // ...and poll_drift must re-tune it and clear the mark.
  EXPECT_EQ(tuner.poll_drift(), 1);
  EXPECT_TRUE(tuner.drifted().empty());
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.retune"), 1u);
    EXPECT_GT(obs::counter_value("tune.probe"), 0u);
  }
}

// The tuned executor override must reach resolve_cpu_exec keyed on the
// host's resolved tier, and leave other sizes on the static table.
TEST(TuneProperty, ExecOverrideReachesResolveCpuExec) {
  const SimdIsa tier = resolve_simd_isa(SimdIsa::kAuto);
  const CpuExec fallback = resolve_cpu_exec(48, SimdIsa::kAuto);
  const CpuExec neighbour = resolve_cpu_exec(32, SimdIsa::kAuto);
  const CpuExec forced = fallback == CpuExec::kInterpreter
                             ? CpuExec::kVectorized
                             : CpuExec::kInterpreter;
  auto table = std::make_shared<std::map<std::pair<int, SimdIsa>, CpuExec>>();
  (*table)[{48, tier}] = forced;
  set_cpu_exec_overrides(table);
  obs::reset_counters();
  EXPECT_EQ(resolve_cpu_exec(48, SimdIsa::kAuto), forced);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("tune.exec_override"), 1u);
  }
  // A size without an override entry keeps its static-table answer.
  EXPECT_EQ(resolve_cpu_exec(32, SimdIsa::kAuto), neighbour);
  set_cpu_exec_overrides(nullptr);
  EXPECT_EQ(resolve_cpu_exec(48, SimdIsa::kAuto), fallback);
}

// Model-vs-forest ranking: a forest trained on an exhaustive model sweep
// must, like the model, put a within-10% configuration in its top-K — the
// learned ranking and the analytical one agree on what matters.
TEST(TuneProperty, ForestRankingAgreesWithModelOnTopK) {
  const int n = 32;
  const std::int64_t batch = 16384;
  const SpaceOptions sopts = tune::default_instant_space();
  const std::vector<TuningParams> space = enumerate_space(n, sopts);
  ModelEvaluator eval(test_model(), kNoiseSigma);

  SweepDataset ds;
  double best_seconds = 1e300;
  for (const TuningParams& p : space) {
    SweepRecord r;
    r.n = n;
    r.batch = batch;
    r.params = p;
    r.seconds = eval.seconds(n, batch, p);
    r.gflops = gflops_of(n, batch, r.seconds);
    best_seconds = std::min(best_seconds, r.seconds);
    ds.add(r);
  }
  const double best_gflops = gflops_of(n, batch, best_seconds);

  RandomForest forest;
  const AnalysisData data = build_analysis_data(ds);
  ForestOptions fopts;
  fopts.num_trees = 120;  // plenty for ranking; keeps the test quick
  forest.fit(data.features, data.target, fopts);

  const auto ranked = tune::rank_with_forest(forest, n, space, 8);
  ASSERT_EQ(ranked.size(), 8u);
  double ranked_best = 0.0;
  for (const auto& c : ranked) {
    const double s = eval.seconds(n, batch, c.params);
    ranked_best = std::max(ranked_best, gflops_of(n, batch, s));
  }
  EXPECT_GE(ranked_best, 0.90 * best_gflops)
      << "forest top-8 best " << ranked_best << " GF/s vs exhaustive "
      << best_gflops;
}

}  // namespace
}  // namespace ibchol
