// Tests for the autotuner: space enumeration, sweeps, records, analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "autotune/analyze.hpp"
#include "autotune/evaluator.hpp"
#include "autotune/journal.hpp"
#include "autotune/space.hpp"
#include "autotune/sweep.hpp"

namespace ibchol {
namespace {

// --------------------------------------------------------------- space ---

TEST(Space, SizeMatchesGridArithmetic) {
  // nb(8) x looking(3) x unroll(2) x layouts(5 chunked + 1 simple) = 288.
  const auto space = enumerate_space(64, {});
  EXPECT_EQ(space.size(), 288u);
}

TEST(Space, FastMathDoublesSpace) {
  SpaceOptions opt;
  opt.include_fast_math = true;
  EXPECT_EQ(enumerate_space(64, opt).size(), 576u);
}

TEST(Space, CachePrefDoublesSpace) {
  SpaceOptions opt;
  opt.include_cache_pref = true;
  EXPECT_EQ(enumerate_space(64, opt).size(), 576u);
}

TEST(Space, TileSizesClampedToN) {
  // n=3 keeps nb in {1,2,3}: 3 x 3 x 2 x 6 = 108.
  EXPECT_EQ(enumerate_space(3, {}).size(), 108u);
}

TEST(Space, AllPointsValidAndDistinct) {
  std::set<std::string> keys;
  for (const auto& p : enumerate_space(24, {})) {
    p.validate(24);
    EXPECT_TRUE(keys.insert(p.key()).second) << p.key();
  }
}

TEST(Space, ExecutorAxisMultipliesSpace) {
  // Two executors, two vectorized tiers: the 288-point grid gains a factor
  // of (1 + 2) = 3.
  SpaceOptions opt;
  opt.execs = {CpuExec::kInterpreter, CpuExec::kVectorized};
  opt.isas = {SimdIsa::kScalar, SimdIsa::kAvx2};
  const auto space = enumerate_space(64, opt);
  EXPECT_EQ(space.size(), 288u * 3);
  std::set<std::string> keys;
  for (const auto& p : space) {
    p.validate(64);
    EXPECT_TRUE(keys.insert(p.key()).second) << p.key();
  }
}

TEST(Space, DefaultExecAxisMatchesHistoricalGrid) {
  // Leaving execs empty keeps the historical single-executor grid (on the
  // interpreter, whose keys carry no executor suffix) so old sweep datasets
  // remain comparable point for point.
  for (const auto& p : enumerate_space(16, {})) {
    EXPECT_EQ(p.exec, CpuExec::kInterpreter);
    EXPECT_EQ(p.isa, SimdIsa::kAuto);
  }
}

TEST(Space, PackChunkSizesSweepTheNonChunkedKnob) {
  // chunk_size is a live axis for the non-chunked layout too (the CPU
  // pipeline's pack-scratch lane count): each requested size replaces the
  // historical single chunk_size=0 point.
  SpaceOptions opt;
  opt.pack_chunk_sizes = {64, 128, 256};
  const auto space = enumerate_space(64, opt);
  // 48 base combos x (5 chunked + 3 non-chunked layout points).
  EXPECT_EQ(space.size(), 48u * 8);
  std::set<std::string> keys;
  std::set<int> seen;
  for (const auto& p : space) {
    p.validate(64);
    EXPECT_TRUE(keys.insert(p.key()).second) << p.key();
    if (!p.chunked) seen.insert(p.chunk_size);
  }
  EXPECT_EQ(seen, (std::set<int>{64, 128, 256}));
}

TEST(Space, SizesLists) {
  EXPECT_EQ(standard_sizes().front(), 2);
  EXPECT_EQ(standard_sizes().back(), 64);
  EXPECT_FALSE(quick_sizes().empty());
  // Every tiled-lane size sits past the small-n executors' ceiling.
  for (const int n : tiled_sizes()) EXPECT_GT(n, 64);
}

TEST(Space, TiledLaneOffByDefaultAndGated) {
  // With the lane off the enumeration is byte-identical to the historical
  // grid: no exec=kAuto points, no non-default lookahead.
  for (const auto& p : enumerate_space(256, {})) {
    EXPECT_NE(p.exec, CpuExec::kAuto);
    EXPECT_EQ(p.lookahead, 2);
  }
  SpaceOptions opt;
  opt.include_tiled = true;
  const auto base = enumerate_space(256, {});
  const auto space = enumerate_space(256, opt);
  ASSERT_GT(space.size(), base.size());
  // The lane appends after the classic grid, leaving its prefix intact.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(space[i].key(), base[i].key()) << i;
  }
  std::set<std::string> keys;
  std::set<int> lookaheads;
  for (const auto& p : space) {
    p.validate(256);
    EXPECT_TRUE(keys.insert(p.key()).second) << p.key();
    if (p.exec == CpuExec::kAuto) {
      EXPECT_GE(p.nb, 16);  // the cache-fit ladder, not the small-n sizes
      lookaheads.insert(p.lookahead);
    }
  }
  EXPECT_EQ(lookaheads, (std::set<int>{1, 2, 4}));
  // At and below the ceiling the lane contributes nothing.
  EXPECT_EQ(enumerate_space(64, opt).size(), enumerate_space(64, {}).size());
}

// --------------------------------------------------------------- sweep ---

class SweepTest : public ::testing::Test {
 protected:
  static SweepOptions small_options() {
    SweepOptions opt;
    opt.sizes = {8, 24};
    opt.batch = 16384;
    opt.space.tile_sizes = {1, 4, 8};
    opt.space.chunk_sizes = {32, 256};
    return opt;
  }
};

TEST_F(SweepTest, ProducesOneRecordPerPoint) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  const SweepOptions opt = small_options();
  std::size_t expected = 0;
  for (const int n : opt.sizes) {
    expected += enumerate_space(n, opt.space).size();
  }
  const SweepDataset ds = run_sweep(eval, opt);
  EXPECT_EQ(ds.size(), expected);
  for (const auto& r : ds.records()) {
    EXPECT_GT(r.gflops, 0.0);
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST_F(SweepTest, ProgressCallbackCovered) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  SweepOptions opt = small_options();
  std::size_t last = 0, total = 0;
  opt.progress = [&](std::size_t done, std::size_t t) {
    last = done;
    total = t;
  };
  const SweepDataset ds = run_sweep(eval, opt);
  EXPECT_EQ(last, ds.size());
  EXPECT_EQ(total, ds.size());
}

TEST_F(SweepTest, ParallelMatchesSerialRecordForRecord) {
  // The parallel driver must return records in the same order, with the
  // same values, as the serial driver (jitter included — it is keyed on
  // the point, not on evaluation order).
  ModelEvaluator serial_eval(KernelModel(GpuSpec::p100()), 0.05);
  ModelEvaluator parallel_eval(KernelModel(GpuSpec::p100()), 0.05);
  SweepOptions opt = small_options();
  opt.num_threads = 1;
  const SweepDataset serial = run_sweep(serial_eval, opt);
  opt.num_threads = 4;
  const SweepDataset parallel = run_sweep(parallel_eval, opt);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SweepRecord& a = serial.records()[i];
    const SweepRecord& b = parallel.records()[i];
    EXPECT_EQ(a.n, b.n) << "record " << i;
    EXPECT_EQ(a.params, b.params) << "record " << i;
    EXPECT_EQ(a.seconds, b.seconds) << "record " << i;
    EXPECT_EQ(a.gflops, b.gflops) << "record " << i;
  }
}

TEST_F(SweepTest, ParallelProgressIsSerializedAndMonotone) {
  // The progress contract (sweep.hpp): invocations are serialized, and the
  // done counts form exactly 1..total even when workers finish out of
  // order. A violated mutex would show up as a gap or repeat here.
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  SweepOptions opt = small_options();
  opt.num_threads = 4;
  std::vector<std::size_t> dones;
  std::vector<std::size_t> totals;
  opt.progress = [&](std::size_t done, std::size_t total) {
    dones.push_back(done);
    totals.push_back(total);
  };
  const SweepDataset ds = run_sweep(eval, opt);
  ASSERT_EQ(dones.size(), ds.size());
  for (const std::size_t t : totals) EXPECT_EQ(t, ds.size());
  for (std::size_t i = 0; i < dones.size(); ++i) {
    EXPECT_EQ(dones[i], i + 1);
  }
}

TEST_F(SweepTest, MeasuredEvaluatorStaysSerial) {
  // Wall-clock evaluators must own the machine; parallel_safe() gates the
  // OpenMP driver off no matter what num_threads asks for.
  CpuMeasuredEvaluator::Options mopt;
  CpuMeasuredEvaluator eval(mopt);
  EXPECT_FALSE(eval.parallel_safe());
  ModelEvaluator model(KernelModel(GpuSpec::p100()));
  EXPECT_TRUE(model.parallel_safe());
}

TEST(Evaluators, ModelMemoizesRepeatedPoints) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()), 0.05);
  TuningParams p;
  const double first = eval.seconds(16, 1024, p);
  EXPECT_EQ(eval.cache_size(), 1u);
  EXPECT_EQ(eval.cache_hits(), 0u);
  EXPECT_EQ(eval.seconds(16, 1024, p), first);
  EXPECT_EQ(eval.cache_hits(), 1u);
  // Distinct points (different n, batch, or params) get distinct slots.
  (void)eval.seconds(24, 1024, p);
  (void)eval.seconds(16, 2048, p);
  p.nb = 2;
  (void)eval.seconds(16, 1024, p);
  EXPECT_EQ(eval.cache_size(), 4u);
}

TEST_F(SweepTest, WinnersAreChunked) {
  // The model must never pick a non-chunked winner (paper conclusion).
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  const SweepDataset ds = run_sweep(eval, small_options());
  for (const auto& [n, params] : select_winners(ds)) {
    EXPECT_TRUE(params.chunked) << "n=" << n;
  }
}

TEST_F(SweepTest, BestReducersConsistent) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  const SweepDataset ds = run_sweep(eval, small_options());
  const auto best8 = ds.best(8);
  ASSERT_TRUE(best8.has_value());
  for (const auto& r : ds.records()) {
    if (r.n == 8) EXPECT_LE(r.gflops, best8->gflops);
  }
  const auto by_n = ds.best_by_n();
  EXPECT_EQ(by_n.at(8).gflops, best8->gflops);
  // Filtered best: nb == 1 only.
  const auto nb1 = ds.best(24, [](const SweepRecord& r) {
    return r.params.nb == 1;
  });
  ASSERT_TRUE(nb1.has_value());
  EXPECT_EQ(nb1->params.nb, 1);
  EXPECT_FALSE(ds.best(99).has_value());
}

TEST_F(SweepTest, CsvRoundTrip) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  const SweepDataset ds = run_sweep(eval, small_options());
  const SweepDataset back = SweepDataset::from_csv(ds.to_csv());
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(back.records()[i].n, ds.records()[i].n);
    EXPECT_EQ(back.records()[i].params, ds.records()[i].params);
    EXPECT_NEAR(back.records()[i].gflops, ds.records()[i].gflops, 1e-4);
  }
}

TEST_F(SweepTest, ChunkSizeKnobRoundTripsCsvAndJournal) {
  // A non-chunked record carrying a live pack chunk size (and the kAuto
  // executor) must survive both persistence formats bit-for-bit, so sweep
  // archives written with the CPU pipeline's new axes re-load comparably.
  SweepRecord r;
  r.n = 32;
  r.batch = 4096;
  r.params.chunked = false;
  r.params.chunk_size = 128;
  r.params.exec = CpuExec::kAuto;
  r.params.unroll = Unroll::kFull;
  r.seconds = 1.25e-3;
  r.gflops = 35.125;
  const auto parsed = parse_journal_line(journal_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params, r.params);
  EXPECT_EQ(parsed->params.chunk_size, 128);
  EXPECT_EQ(parsed->params.exec, CpuExec::kAuto);
  EXPECT_EQ(parsed->seconds, r.seconds);

  SweepDataset ds;
  ds.add(r);
  const SweepDataset back = SweepDataset::from_csv(ds.to_csv());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].params, r.params);
  EXPECT_FALSE(back.records()[0].params.chunked);
  EXPECT_EQ(back.records()[0].params.chunk_size, 128);
}

TEST_F(SweepTest, LookaheadRoundTripsCsvAndJournal) {
  // A tiled-lane record (kAuto executor, non-default panel lookahead) must
  // survive both persistence formats so large-n sweeps resume and re-load
  // exactly; archives written before the column keep the default.
  SweepRecord r;
  r.n = 256;
  r.batch = 32;
  r.params.nb = 64;
  r.params.exec = CpuExec::kAuto;
  r.params.chunked = false;
  r.params.chunk_size = 0;
  r.params.lookahead = 4;
  r.seconds = 2.5e-2;
  r.gflops = 17.5;
  const auto parsed = parse_journal_line(journal_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params, r.params);
  EXPECT_EQ(parsed->params.lookahead, 4);

  SweepDataset ds;
  ds.add(r);
  const SweepDataset back = SweepDataset::from_csv(ds.to_csv());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].params, r.params);
  EXPECT_EQ(back.records()[0].params.lookahead, 4);

  // Pre-lane journal lines carry no "lookahead" field: parse defaults it.
  std::string old_line = journal_line(r);
  const std::size_t at = old_line.find(",\"lookahead\":4");
  ASSERT_NE(at, std::string::npos);
  old_line.erase(at, std::string(",\"lookahead\":4").size());
  const auto old_back = parse_journal_line(old_line);
  ASSERT_TRUE(old_back.has_value());
  EXPECT_EQ(old_back->params.lookahead, 2);

  // Likewise a pre-lane CSV without the column.
  CsvTable t = ds.to_csv();
  const auto col = std::find(t.header.begin(), t.header.end(),
                             std::string("lookahead"));
  ASSERT_NE(col, t.header.end());
  const std::size_t ci = static_cast<std::size_t>(col - t.header.begin());
  t.header.erase(t.header.begin() + static_cast<std::ptrdiff_t>(ci));
  for (auto& row : t.rows) {
    row.erase(row.begin() + static_cast<std::ptrdiff_t>(ci));
  }
  const SweepDataset old_ds = SweepDataset::from_csv(t);
  ASSERT_EQ(old_ds.size(), 1u);
  EXPECT_EQ(old_ds.records()[0].params.lookahead, 2);
}

TEST_F(SweepTest, RejectsEmptyConfiguration) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  SweepOptions opt;
  EXPECT_THROW((void)run_sweep(eval, opt), Error);
}

// ----------------------------------------------------------- evaluators --

TEST(Evaluators, ModelNoiseIsDeterministic) {
  ModelEvaluator a(KernelModel(GpuSpec::p100()), 0.05);
  ModelEvaluator b(KernelModel(GpuSpec::p100()), 0.05);
  TuningParams p;
  EXPECT_EQ(a.seconds(16, 1024, p), b.seconds(16, 1024, p));
  // Noise perturbs relative to the clean model.
  ModelEvaluator clean(KernelModel(GpuSpec::p100()), 0.0);
  EXPECT_NE(a.seconds(16, 1024, p), clean.seconds(16, 1024, p));
}

TEST(Evaluators, GflopsUsesNominalFormula) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  TuningParams p;
  const double s = eval.seconds(12, 4096, p);
  const double g = eval.gflops(12, 4096, p);
  EXPECT_NEAR(g, 4096.0 * 12 * 12 * 12 / 3.0 / s / 1e9, 1e-9);
}

TEST(Evaluators, CpuMeasuredProducesPositiveTimes) {
  CpuMeasuredEvaluator::Options opt;
  opt.warmup = 0;
  opt.reps = 1;
  CpuMeasuredEvaluator eval(opt);
  TuningParams p;
  const double s = eval.seconds(8, 512, p);
  EXPECT_GT(s, 0.0);
  // Cached pristine data: second call still works and is positive.
  EXPECT_GT(eval.seconds(8, 512, p), 0.0);
}

// ------------------------------------------------------------- analyze ---

TEST(Analyze, TableAndCorrelation) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()), 0.02);
  SweepOptions opt;
  opt.sizes = {8, 16, 32, 48};
  opt.space.tile_sizes = {1, 2, 4, 8};
  opt.space.chunk_sizes = {32, 128, 512};
  opt.space.include_cache_pref = true;
  const SweepDataset ds = run_sweep(eval, opt);

  ForestOptions fopt;
  fopt.num_trees = 120;
  // The feature set now carries "isa", constant in this executor-less
  // sweep; widen the per-node candidate draw so a dead draw cannot crowd
  // out the live parameters (default mtry stays at p/3 = 2).
  fopt.tree.mtry = 3;
  const AnalysisResult res = analyze_dataset(ds, fopt);

  ASSERT_EQ(res.table.size(), 10u);
  EXPECT_EQ(res.table[0].parameter, "n");
  EXPECT_EQ(res.num_trees, 120);
  EXPECT_GT(res.average_depth, 2.0);
  EXPECT_GT(res.correlation, 0.9);  // Fig 21: tight predicted-vs-observed
  EXPECT_EQ(res.observed.size(), res.predicted.size());
  EXPECT_GT(res.observed.size(), ds.size() / 2);

  // The cache carveout does nothing in these kernels: its predictive power
  // must be the weakest of all parameters (Table I's bottom row).
  double cache_imp = 0.0, max_imp = 0.0;
  for (const auto& row : res.table) {
    if (row.parameter == "cache") cache_imp = row.inc_mse;
    max_imp = std::max(max_imp, row.inc_mse);
  }
  EXPECT_LT(cache_imp, 0.05 * max_imp);

  // The chunked-layout axis must rank among the strongest tuning
  // parameters (Table I). Its importance splits across the yes/no flag and
  // the chunk-size knob — correlated features share permutation importance
  // — so the claim is asserted on their sum, and the flag alone must still
  // beat clearly-dead axes like the evaluation order.
  double chunking_imp = 0.0, chunk_size_imp = 0.0, looking_imp = 0.0;
  for (const auto& row : res.table) {
    if (row.parameter == "chunking") chunking_imp = row.inc_mse;
    if (row.parameter == "chunk_size") chunk_size_imp = row.inc_mse;
    if (row.parameter == "looking") looking_imp = row.inc_mse;
  }
  EXPECT_GT(chunking_imp + chunk_size_imp, 0.15 * max_imp);
  EXPECT_GT(chunking_imp, looking_imp);

  // The executor tier is constant in this sweep (no --exec axis), so its
  // permutation importance must be exactly zero.
  for (const auto& row : res.table) {
    if (row.parameter == "isa") EXPECT_EQ(row.inc_mse, 0.0);
  }
}

TEST(Analyze, RejectsEmptyDataset) {
  const SweepDataset empty;
  EXPECT_THROW((void)analyze_dataset(empty), Error);
}

TEST(Analyze, FeatureMatrixShape) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()));
  SweepOptions opt;
  opt.sizes = {8};
  opt.space.tile_sizes = {1};
  opt.space.chunk_sizes = {32};
  const SweepDataset ds = run_sweep(eval, opt);
  const AnalysisData data = build_analysis_data(ds);
  EXPECT_EQ(data.features.rows(), ds.size());
  EXPECT_EQ(data.features.cols(), 10u);
  EXPECT_EQ(data.target.size(), ds.size());
}

// The feature count is pinned in exactly one place (the schema): the
// names, the Table I metadata, and the per-record encoder must all agree
// on it, so a new axis can never widen one and not the others.
TEST(Analyze, FeatureCountPinnedBySchema) {
  const auto& schema = analysis_feature_schema();
  EXPECT_EQ(analysis_feature_names().size(), schema.size());
  EXPECT_EQ(analysis_features_for(8, TuningParams{}).size(), schema.size());
  for (std::size_t f = 0; f < schema.size(); ++f) {
    EXPECT_EQ(analysis_feature_names()[f], schema[f].name);
  }
}

// Differential: a pre-lookahead (9-feature era) CSV and a current
// 10-column CSV must both parse, both build full-width feature matrices,
// and — when lookahead sat at its default throughout — train forests that
// predict identically, because the missing column back-fills the default.
TEST(Analyze, OldNineFeatureCsvParsesAndPredictsLikeNew) {
  ModelEvaluator eval(KernelModel(GpuSpec::p100()), 0.02);
  SweepOptions opt;
  opt.sizes = {8, 16};
  opt.space.tile_sizes = {1, 2, 4, 8};
  opt.space.chunk_sizes = {32, 128};
  const SweepDataset ds = run_sweep(eval, opt);

  // The current serialization, and the same table with the "lookahead"
  // column dropped — what a PR-8-era sweep run wrote to disk.
  const CsvTable csv_new = ds.to_csv();
  const std::size_t la = csv_new.column("lookahead");
  CsvTable csv_old = csv_new;
  csv_old.header.erase(csv_old.header.begin() + static_cast<long>(la));
  const std::string la_default = std::to_string(TuningParams{}.lookahead);
  for (auto& row : csv_old.rows) {
    // A small-n sweep never moves lookahead off its default, so dropping
    // the column loses no information — exactly the 9-feature era.
    ASSERT_EQ(row[la], la_default);
    row.erase(row.begin() + static_cast<long>(la));
  }

  const SweepDataset ds_new = SweepDataset::from_csv(csv_new);
  const SweepDataset ds_old = SweepDataset::from_csv(csv_old);
  ASSERT_EQ(ds_new.size(), ds.size());
  ASSERT_EQ(ds_old.size(), ds.size());

  // Both eras encode to the full schema width.
  const AnalysisData d_new = build_analysis_data(ds_new);
  const AnalysisData d_old = build_analysis_data(ds_old);
  const std::size_t width = analysis_feature_schema().size();
  EXPECT_EQ(d_new.features.cols(), width);
  EXPECT_EQ(d_old.features.cols(), width);
  EXPECT_EQ(d_new.features.cols(), analysis_feature_names().size());

  // Row-for-row identical matrices: the dropped column back-filled its
  // default, which is exactly what the records held.
  ASSERT_EQ(d_new.features.rows(), d_old.features.rows());
  for (std::size_t i = 0; i < d_new.features.rows(); ++i) {
    for (std::size_t f = 0; f < width; ++f) {
      ASSERT_EQ(d_new.features.at(i, f), d_old.features.at(i, f))
          << "row " << i << " feature " << analysis_feature_names()[f];
    }
  }

  // Forests fit on either era predict finite, identical values (same
  // data, same seeded training).
  ForestOptions fopt;
  fopt.num_trees = 40;
  RandomForest f_new, f_old;
  f_new.fit(d_new.features, d_new.target, fopt);
  f_old.fit(d_old.features, d_old.target, fopt);
  const std::vector<double> probe =
      analysis_features_for(16, ds.records().front().params);
  const double p_new = f_new.predict(probe);
  const double p_old = f_old.predict(probe);
  EXPECT_TRUE(std::isfinite(p_new));
  EXPECT_DOUBLE_EQ(p_new, p_old);
}

}  // namespace
}  // namespace ibchol
