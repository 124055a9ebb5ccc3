// Tests for the ALS recommender built on the batch Cholesky API.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>

#include "als/als.hpp"
#include "als/ratings.hpp"
#include "core/batch_cholesky.hpp"
#include "layout/vector_layout.hpp"
#include "obs/histogram.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ibchol {
namespace {

RatingsOptions small_options() {
  RatingsOptions opt;
  opt.num_users = 300;
  opt.num_items = 200;
  opt.planted_rank = 4;
  opt.ratings_per_user = 25;
  opt.noise = 0.05;
  opt.seed = 2024;
  return opt;
}

// ------------------------------------------------------------ ratings ----

TEST(Ratings, ShapeAndDeterminism) {
  const RatingsDataset a = generate_ratings(small_options());
  const RatingsDataset b = generate_ratings(small_options());
  EXPECT_EQ(a.num_users, 300);
  EXPECT_EQ(a.num_items, 200);
  EXPECT_GT(a.train_size(), 4000u);
  ASSERT_EQ(a.train_size(), b.train_size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].user, b.train[i].user);
    EXPECT_EQ(a.train[i].item, b.train[i].item);
    EXPECT_EQ(a.train[i].value, b.train[i].value);
  }
}

TEST(Ratings, TestFractionApproximatelyRespected) {
  const RatingsDataset ds = generate_ratings(small_options());
  const double frac = static_cast<double>(ds.test.size()) /
                      (ds.test.size() + ds.train.size());
  EXPECT_NEAR(frac, 0.1, 0.03);
}

TEST(Ratings, AdjacencyConsistent) {
  const RatingsDataset ds = generate_ratings(small_options());
  std::size_t total = 0;
  for (int u = 0; u < ds.num_users; ++u) {
    for (const auto idx : ds.by_user[u]) {
      EXPECT_EQ(ds.train[idx].user, u);
      ++total;
    }
  }
  EXPECT_EQ(total, ds.train.size());
  total = 0;
  for (int i = 0; i < ds.num_items; ++i) {
    for (const auto idx : ds.by_item[i]) {
      EXPECT_EQ(ds.train[idx].item, i);
      ++total;
    }
  }
  EXPECT_EQ(total, ds.train.size());
}

TEST(Ratings, NoDuplicateUserItemPairs) {
  const RatingsDataset ds = generate_ratings(small_options());
  std::set<std::pair<int, int>> seen;
  for (const auto& r : ds.train) {
    EXPECT_TRUE(seen.insert({r.user, r.item}).second)
        << r.user << "," << r.item;
  }
}

TEST(Ratings, ZipfSkewsItemPopularity) {
  const RatingsDataset ds = generate_ratings(small_options());
  // The most popular item must be observed far more often than the median.
  std::vector<std::size_t> counts;
  for (const auto& items : ds.by_item) counts.push_back(items.size());
  std::sort(counts.begin(), counts.end());
  EXPECT_GT(counts.back(), 3 * std::max<std::size_t>(counts[counts.size() / 2], 1));
}

TEST(Ratings, RejectsBadOptions) {
  RatingsOptions opt = small_options();
  opt.num_users = 0;
  EXPECT_THROW((void)generate_ratings(opt), Error);
}

// ---------------------------------------------------------------- als ----

TEST(Als, RecoversPlantedStructure) {
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.rank = 8;
  opt.lambda = 0.02;
  opt.iterations = 8;
  AlsRecommender als(ds, opt);
  const auto history = als.run();
  ASSERT_EQ(history.size(), 8u);
  // RMSE must come down substantially toward the noise floor (0.05).
  EXPECT_LT(history.back().train_rmse, 0.1);
  EXPECT_LT(history.back().test_rmse, 0.25);
  // And be non-increasing overall (first vs last).
  EXPECT_LT(history.back().train_rmse, history.front().train_rmse);
}

TEST(Als, TrainRmseMonotonicallyImprovesEarly) {
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.rank = 8;
  opt.iterations = 4;
  AlsRecommender als(ds, opt);
  const auto history = als.run();
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_LE(history[i].train_rmse, history[i - 1].train_rmse * 1.05);
  }
}

TEST(Als, FactorSecondsArePositive) {
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.iterations = 1;
  AlsRecommender als(ds, opt);
  const auto history = als.run();
  EXPECT_GT(history[0].factor_seconds, 0.0);
}

TEST(Als, TuningParametersInterchangeable) {
  // Different kernel variants must give numerically comparable results.
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions a;
  a.rank = 8;
  a.iterations = 3;
  a.tuning.unroll = Unroll::kFull;
  AlsOptions b = a;
  b.tuning.unroll = Unroll::kPartial;
  b.tuning.nb = 4;
  b.tuning.looking = Looking::kRight;
  b.tuning.chunked = false;
  AlsRecommender ra(ds, a), rb(ds, b);
  const double rmse_a = ra.run().back().train_rmse;
  const double rmse_b = rb.run().back().train_rmse;
  EXPECT_NEAR(rmse_a, rmse_b, 0.02);
}

TEST(Als, PredictUsesFactors) {
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.rank = 4;
  opt.iterations = 2;
  AlsRecommender als(ds, opt);
  als.run();
  const float p = als.predict(0, 0);
  double manual = 0.0;
  for (int d = 0; d < 4; ++d) {
    manual += static_cast<double>(als.user_factors()[d]) *
              als.item_factors()[d];
  }
  EXPECT_NEAR(p, manual, 1e-5);
}

TEST(Als, RejectsBadOptions) {
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.rank = 0;
  EXPECT_THROW(AlsRecommender(ds, opt), Error);
}

TEST(Als, HandlesUsersWithoutRatings) {
  // A tiny dataset where some users have no training ratings: the
  // regularized system is still SPD (lambda * I), so ALS must not fail.
  RatingsOptions opt = small_options();
  opt.num_users = 50;
  opt.num_items = 20;
  opt.ratings_per_user = 2;
  opt.test_fraction = 0.5;  // push many ratings into the test split
  const RatingsDataset ds = generate_ratings(opt);
  AlsOptions aopt;
  aopt.rank = 4;
  aopt.iterations = 2;
  AlsRecommender als(ds, aopt);
  EXPECT_NO_THROW(als.run());
}

TEST(Als, RecordsStageHistograms) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const RatingsDataset ds = generate_ratings(small_options());
  AlsOptions opt;
  opt.rank = 4;
  opt.iterations = 2;
  AlsRecommender als(ds, opt);
  const auto count = [](const char* name) {
    return obs::histogram(name).snapshot().count;
  };
  const std::uint64_t assemble = count("als.assemble_ns");
  const std::uint64_t factor_solve = count("als.factor_solve_ns");
  const std::uint64_t rmse = count("als.rmse_ns");
  als.run();
  // Per iteration: two half-iterations, one train and one test RMSE.
  EXPECT_EQ(count("als.assemble_ns") - assemble, 4u);
  EXPECT_EQ(count("als.factor_solve_ns") - factor_solve, 4u);
  EXPECT_EQ(count("als.rmse_ns") - rmse, 4u);
}

// ------------------------------------------------------ byte identity ----

/// One half-iteration with the normal equations assembled entry by entry,
/// each entry re-reading the row's ratings, into a fresh batch. The oracle
/// for AlsRecommender's one-pass assembly: that keeps every accumulator's
/// start value and addition order, so the factors must match byte for byte.
void oracle_update_side(const RatingsDataset& ds, const AlsOptions& opt,
                        bool by_user, const std::vector<float>& fixed,
                        std::vector<float>& factors) {
  const auto& adjacency = by_user ? ds.by_user : ds.by_item;
  const int f = opt.rank;
  const auto batch = static_cast<std::int64_t>(adjacency.size());
  const BatchLayout layout = BatchCholesky::make_layout(f, batch, opt.tuning);
  const BatchVectorLayout vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> mats(layout.size_elems());
  AlignedBuffer<float> rhs(vlayout.size_elems());
  for (std::int64_t b = 0; b < batch; ++b) {
    const auto& rated = adjacency[static_cast<std::size_t>(b)];
    const double reg =
        opt.lambda * static_cast<double>(std::max<std::size_t>(rated.size(), 1));
    for (int j = 0; j < f; ++j) {
      for (int i = j; i < f; ++i) {
        double acc = (i == j) ? reg : 0.0;
        for (const std::int32_t ridx : rated) {
          const Rating& r = ds.train[static_cast<std::size_t>(ridx)];
          const float* vrow =
              fixed.data() +
              static_cast<std::size_t>(by_user ? r.item : r.user) * f;
          acc += static_cast<double>(vrow[i]) * vrow[j];
        }
        mats[layout.index(b, i, j)] = static_cast<float>(acc);
        mats[layout.index(b, j, i)] = static_cast<float>(acc);
      }
    }
    for (int i = 0; i < f; ++i) {
      double acc = 0.0;
      for (const std::int32_t ridx : rated) {
        const Rating& r = ds.train[static_cast<std::size_t>(ridx)];
        acc += static_cast<double>(r.value) *
               fixed[static_cast<std::size_t>(by_user ? r.item : r.user) * f +
                     i];
      }
      rhs[vlayout.index(b, i)] = static_cast<float>(acc);
    }
  }
  const BatchCholesky chol(layout, opt.tuning);
  ASSERT_TRUE(chol.factorize<float>(mats.span()).ok());
  chol.solve<float>(std::span<const float>(mats.data(), mats.size()), vlayout,
                    rhs.span());
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int i = 0; i < f; ++i) {
      factors[static_cast<std::size_t>(b) * f + i] = rhs[vlayout.index(b, i)];
    }
  }
}

/// 700 users and 70 items, so both sides' batches end in padding lanes.
/// Every fifth user rates nothing; the others rate item 0, and the odd ones
/// one more item, so item 0 holds more than half of the training ratings
/// and more than one 256-rating gather pass of them. User 3 also rates
/// item 5 three times, 2⁶⁰, −2⁶⁰ and 1: the two large terms of each sum
/// cancel exactly in adjacency order, while any other order rounds the 1
/// away, which float outputs would otherwise hide.
RatingsDataset skewed_dataset() {
  RatingsDataset ds;
  ds.num_users = 700;
  ds.num_items = 70;
  ds.by_user.resize(700);
  ds.by_item.resize(70);
  Xoshiro256 rng(7);
  for (std::int32_t u = 0; u < ds.num_users; ++u) {
    if (u % 5 == 4) continue;
    std::vector<std::int32_t> items = {0};
    if (u % 2 == 1) items.push_back(1 + (u * 7) % 69);
    for (const std::int32_t item : items) {
      const Rating r{u, item, static_cast<float>(rng.normal())};
      if (u % 7 == 3) {
        ds.test.push_back(r);
        continue;
      }
      const auto idx = static_cast<std::int32_t>(ds.train.size());
      ds.train.push_back(r);
      ds.by_user[static_cast<std::size_t>(u)].push_back(idx);
      ds.by_item[static_cast<std::size_t>(item)].push_back(idx);
    }
  }
  for (const float value : {0x1p60f, -0x1p60f, 1.0f}) {
    const auto idx = static_cast<std::int32_t>(ds.train.size());
    ds.train.push_back(Rating{3, 5, value});
    ds.by_user[3].push_back(idx);
    ds.by_item[5].push_back(idx);
  }
  return ds;
}

TEST(AlsOracle, FactorsByteIdenticalToEntryByEntryAssembly) {
  const RatingsDataset ds = skewed_dataset();
  ASSERT_GT(2 * ds.by_item[0].size(), ds.train.size());
  ASSERT_GT(ds.by_item[0].size(), 256u);
  ASSERT_TRUE(ds.by_user[4].empty());
  for (const int rank : {1, 4, 8, 16, 17}) {
    for (const bool chunked : {true, false}) {
      SCOPED_TRACE("rank " + std::to_string(rank) +
                   (chunked ? " chunked-64" : " interleaved"));
      AlsOptions opt;
      opt.rank = rank;
      opt.iterations = 2;
      opt.tuning = recommended_params(rank);
      opt.tuning.chunked = chunked;
      opt.tuning.chunk_size = 64;
      AlsRecommender als(ds, opt);
      std::vector<float> users = als.user_factors();
      std::vector<float> items = als.item_factors();
      als.run();
      for (int it = 0; it < opt.iterations; ++it) {
        oracle_update_side(ds, opt, true, items, users);
        oracle_update_side(ds, opt, false, users, items);
      }
      ASSERT_EQ(als.user_factors().size(), users.size());
      ASSERT_EQ(als.item_factors().size(), items.size());
      EXPECT_EQ(std::memcmp(als.user_factors().data(), users.data(),
                            users.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(als.item_factors().data(), items.data(),
                            items.size() * sizeof(float)),
                0);
      EXPECT_TRUE(std::all_of(users.begin(), users.end(),
                              [](float x) { return std::isfinite(x); }));
    }
  }
}

TEST(Als, RmseIndependentOfTeamSize) {
  RatingsOptions ro = small_options();
  ro.num_users = 2000;
  ro.num_items = 500;
  const RatingsDataset ds = generate_ratings(ro);
  ASSERT_GT(ds.train.size(), 4u * 4096u);  // a block for each of 4 threads
  AlsOptions opt;
  opt.rank = 8;
  opt.iterations = 1;
  AlsRecommender als(ds, opt);
  als.run();

  const double train = als.train_rmse();
  const double test = als.test_rmse();
  // With no active level allowed, every parallel region runs on one thread.
  const int levels = omp_get_max_active_levels();
  omp_set_max_active_levels(0);
  int team = 0;
#pragma omp parallel num_threads(4)
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  const double train_1t = als.train_rmse();
  const double test_1t = als.test_rmse();
  omp_set_max_active_levels(levels);
  ASSERT_EQ(team, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(train),
            std::bit_cast<std::uint64_t>(train_1t));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(test),
            std::bit_cast<std::uint64_t>(test_1t));

  auto serial = [&](const std::vector<Rating>& ratings) {
    double acc = 0.0;
    for (const Rating& r : ratings) {
      const double d =
          static_cast<double>(r.value) - als.predict(r.user, r.item);
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(ratings.size()));
  };
  EXPECT_NEAR(train, serial(ds.train), 1e-12 * serial(ds.train));
  EXPECT_NEAR(test, serial(ds.test), 1e-12 * serial(ds.test));
}

}  // namespace
}  // namespace ibchol
