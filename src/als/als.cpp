#include "als/als.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/batch_cholesky.hpp"
#include "cpu/thread_util.hpp"
#include "layout/vector_layout.hpp"
#include "obs/histogram.hpp"
#include "util/rng.hpp"

namespace ibchol {
namespace {

/// Rows are scheduled in units of 16: one element of 16 consecutive lanes
/// is one 64-byte line of an interleaved layout, so no two threads write
/// the same line. Larger units serialize the most-rated items, which the
/// Zipf draw packs into the first rows of the item side.
constexpr int kRowUnit = 16;

/// Ratings gathered per pass over a row's accumulators. The accumulators
/// carry over between passes, so the bound on the gather scratch leaves
/// the addition order untouched.
constexpr int kGatherBatch = 256;

/// Ratings per RMSE block. The block sums are added in block order, so the
/// result does not depend on the team size.
constexpr std::int64_t kRmseBlock = 4096;

using V8d = double __attribute__((vector_size(64)));
using V8f = float __attribute__((vector_size(32)));

// Both accumulate routines add, to every entry of the lower triangle of A
// (f×f, column-major) and of b, one product per gathered rating in the
// order given. A float × float product is exact in double, so whether the
// compiler contracts a multiply-add into an FMA changes no bit.

/// Any rank; the accumulators live in memory.
void accumulate_any(int f, const float* const* rows, const double* vals,
                    int count, double* a, double* b) {
  for (int k = 0; k < count; ++k) {
    const float* v = rows[k];
    for (int j = 0; j < f; ++j) {
      const double vj = v[j];
      double* col = a + static_cast<std::ptrdiff_t>(j) * f;
      for (int i = j; i < f; ++i) col[i] += static_cast<double>(v[i]) * vj;
    }
    for (int i = 0; i < f; ++i) b[i] += vals[k] * v[i];
  }
}

/// Rank 16, with the accumulators in registers across the ratings: columns
/// 0-7 (all 16 rows) together with b, then columns 8-15 (rows 8-15). The
/// entries above the diagonal of the leading 8×8 block ride along unused.
void accumulate16(const float* const* rows, const double* vals, int count,
                  double* a, double* b) {
  constexpr int kF = 16;
  {
    V8d lo[8], hi[8], b0, b1;
    for (int j = 0; j < 8; ++j) {
      std::memcpy(&lo[j], a + j * kF, sizeof(V8d));
      std::memcpy(&hi[j], a + j * kF + 8, sizeof(V8d));
    }
    std::memcpy(&b0, b, sizeof(V8d));
    std::memcpy(&b1, b + 8, sizeof(V8d));
    for (int k = 0; k < count; ++k) {
      V8f f0, f1;
      std::memcpy(&f0, rows[k], sizeof(V8f));
      std::memcpy(&f1, rows[k] + 8, sizeof(V8f));
      const V8d x0 = __builtin_convertvector(f0, V8d);
      const V8d x1 = __builtin_convertvector(f1, V8d);
      for (int j = 0; j < 8; ++j) {
        lo[j] += x0 * x0[j];
        hi[j] += x1 * x0[j];
      }
      b0 += x0 * vals[k];
      b1 += x1 * vals[k];
    }
    for (int j = 0; j < 8; ++j) {
      std::memcpy(a + j * kF, &lo[j], sizeof(V8d));
      std::memcpy(a + j * kF + 8, &hi[j], sizeof(V8d));
    }
    std::memcpy(b, &b0, sizeof(V8d));
    std::memcpy(b + 8, &b1, sizeof(V8d));
  }
  V8d c[8];
  for (int j = 0; j < 8; ++j) {
    std::memcpy(&c[j], a + (8 + j) * kF + 8, sizeof(V8d));
  }
  for (int k = 0; k < count; ++k) {
    V8f f1;
    std::memcpy(&f1, rows[k] + 8, sizeof(V8f));
    const V8d x1 = __builtin_convertvector(f1, V8d);
    for (int j = 0; j < 8; ++j) c[j] += x1 * x1[j];
  }
  for (int j = 0; j < 8; ++j) {
    std::memcpy(a + (8 + j) * kF + 8, &c[j], sizeof(V8d));
  }
}

}  // namespace

AlsRecommender::AlsRecommender(const RatingsDataset& data, AlsOptions options)
    : data_(data), options_(std::move(options)) {
  IBCHOL_CHECK(options_.rank >= 1, "rank must be positive");
  IBCHOL_CHECK(options_.iterations >= 0, "iterations must be non-negative");
  options_.tuning.validate(options_.rank);
  Xoshiro256 rng(options_.seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(options_.rank));
  user_factors_.resize(static_cast<std::size_t>(data_.num_users) *
                       options_.rank);
  item_factors_.resize(static_cast<std::size_t>(data_.num_items) *
                       options_.rank);
  for (auto& x : user_factors_) x = static_cast<float>(rng.normal() * scale);
  for (auto& x : item_factors_) x = static_cast<float>(rng.normal() * scale);
}

double AlsRecommender::update_side(
    const std::vector<std::vector<std::int32_t>>& adjacency,
    std::int32_t Rating::*other, const std::vector<float>& fixed,
    std::vector<float>& factors, SideBuffers& side) {
  [[maybe_unused]] const std::uint64_t t0 = obs::now_ns();
  const int f = options_.rank;
  const std::int64_t batch = static_cast<std::int64_t>(adjacency.size());
  const BatchLayout layout =
      BatchCholesky::make_layout(f, batch, options_.tuning);
  const BatchVectorLayout vlayout = BatchVectorLayout::matching(layout);
  if (side.mats.size() != layout.size_elems()) {
    side.mats.resize(layout.size_elems());
    side.rhs.resize(vlayout.size_elems());
  }
  // A unit's 16 lanes of one element are contiguous (batch stride 1), and
  // consecutive elements of a matrix, or of its right-hand side (the
  // vector layout matches), lie `es` apart.
  IBCHOL_CHECK(layout.batch_stride_within_chunk() == 1 &&
                   layout.padded_batch() % kRowUnit == 0,
               "ALS assembles into interleaved layouts only");
  const std::int64_t es = layout.element_stride();
  const int ff = f * f;

  // Assemble the normal equations A_b = Σ v vᵀ + λ|Ω|I, b_b = Σ r·v. Each
  // row reads its ratings once into double accumulators; a unit's rows are
  // staged lane by lane, then every element goes out as one 64-byte line.
  // Lanes past the batch stage zeros: the factorization and solve write
  // the padding lanes, and each call must factor what a fresh buffer holds.
  const std::int64_t units = layout.padded_batch() / kRowUnit;
  const int nt = resolve_threads(0, units);
  // Per row: the matrix entries, then the right-hand side.
  const auto acc_size = static_cast<std::size_t>(ff + f);
  const std::size_t stage_size = acc_size * kRowUnit;
  std::vector<double> acc_scratch(acc_size * static_cast<std::size_t>(nt));
  AlignedBuffer<float> stage_scratch(stage_size * static_cast<std::size_t>(nt));
#pragma omp parallel for schedule(dynamic, 1) num_threads(nt)
  for (std::int64_t u = 0; u < units; ++u) {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    double* a = acc_scratch.data() + acc_size * tid;
    double* bacc = a + ff;
    float* stage = stage_scratch.data() + stage_size * tid;
    const float* rows[kGatherBatch];
    double vals[kGatherBatch];
    for (int lane = 0; lane < kRowUnit; ++lane) {
      const std::int64_t b = u * kRowUnit + lane;
      if (b >= batch) {
        for (std::size_t e = 0; e < acc_size; ++e) {
          stage[e * kRowUnit + lane] = 0.0f;
        }
        continue;
      }
      const std::vector<std::int32_t>& rated =
          adjacency[static_cast<std::size_t>(b)];
      std::fill(a, a + acc_size, 0.0);
      const double reg = options_.lambda *
                         static_cast<double>(std::max<std::size_t>(
                             rated.size(), 1));
      for (int i = 0; i < f; ++i) a[i * f + i] = reg;
      for (std::size_t k0 = 0; k0 < rated.size(); k0 += kGatherBatch) {
        const int count = static_cast<int>(std::min<std::size_t>(
            kGatherBatch, rated.size() - k0));
        for (int k = 0; k < count; ++k) {
          const Rating& r = data_.train[static_cast<std::size_t>(
              rated[k0 + static_cast<std::size_t>(k)])];
          rows[k] = fixed.data() + static_cast<std::size_t>(r.*other) * f;
          vals[k] = r.value;
        }
        if (f == 16) {
          accumulate16(rows, vals, count, a, bacc);
        } else {
          accumulate_any(f, rows, vals, count, a, bacc);
        }
      }
      for (int j = 0; j < f; ++j) {
        for (int i = j; i < f; ++i) {
          stage[(j * f + i) * kRowUnit + lane] =
              static_cast<float>(a[j * f + i]);
        }
        stage[(ff + j) * kRowUnit + lane] = static_cast<float>(bacc[j]);
      }
    }
    float* m = side.mats.data() + layout.index(u * kRowUnit, 0, 0);
    for (int j = 0; j < f; ++j) {
      for (int i = j; i < f; ++i) {
        const float* line = stage + (j * f + i) * kRowUnit;
        std::memcpy(m + (j * f + i) * es, line, kRowUnit * sizeof(float));
        std::memcpy(m + (i * f + j) * es, line, kRowUnit * sizeof(float));
      }
    }
    float* r = side.rhs.data() + vlayout.index(u * kRowUnit, 0);
    for (int i = 0; i < f; ++i) {
      std::memcpy(r + i * es, stage + (ff + i) * kRowUnit,
                  kRowUnit * sizeof(float));
    }
  }
  const std::uint64_t t1 = obs::now_ns();
  IBCHOL_HIST("als.assemble_ns", t1 - t0);

  // Factor and solve the whole side as one batch.
  const BatchCholesky chol(layout, options_.tuning);
  const FactorResult result = chol.factorize<float>(side.mats.span());
  IBCHOL_CHECK(result.ok(),
               "ALS normal equations must be SPD (regularized Gram)");
  chol.solve<float>(
      std::span<const float>(side.mats.data(), side.mats.size()), vlayout,
      side.rhs.span());
  const std::uint64_t t2 = obs::now_ns();
  IBCHOL_HIST("als.factor_solve_ns", t2 - t1);

  // Scatter solutions back to the factor matrix.
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(0, batch))
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* x = side.rhs.data() + vlayout.index(b, 0);
    for (int i = 0; i < f; ++i) {
      factors[static_cast<std::size_t>(b) * f + i] = x[i * es];
    }
  }
  return static_cast<double>(t2 - t1) * 1e-9;
}

std::vector<AlsIteration> AlsRecommender::run() {
  std::vector<AlsIteration> history;
  for (int it = 0; it < options_.iterations; ++it) {
    AlsIteration rec;
    rec.iteration = it + 1;
    rec.factor_seconds = update_side(data_.by_user, &Rating::item,
                                     item_factors_, user_factors_, user_side_);
    rec.factor_seconds += update_side(data_.by_item, &Rating::user,
                                      user_factors_, item_factors_, item_side_);
    rec.train_rmse = train_rmse();
    rec.test_rmse = test_rmse();
    history.push_back(rec);
  }
  return history;
}

float AlsRecommender::predict(int user, int item) const {
  const int f = options_.rank;
  double acc = 0.0;
  for (int d = 0; d < f; ++d) {
    acc += static_cast<double>(
               user_factors_[static_cast<std::size_t>(user) * f + d]) *
           item_factors_[static_cast<std::size_t>(item) * f + d];
  }
  return static_cast<float>(acc);
}

double AlsRecommender::rmse(const std::vector<Rating>& ratings) const {
  [[maybe_unused]] const std::uint64_t t0 = obs::now_ns();
  const auto total = static_cast<std::int64_t>(ratings.size());
  const std::int64_t blocks = (total + kRmseBlock - 1) / kRmseBlock;
  std::vector<double> sums(static_cast<std::size_t>(blocks));
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(0, blocks))
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    const std::int64_t end = std::min(total, (blk + 1) * kRmseBlock);
    double acc = 0.0;
    for (std::int64_t k = blk * kRmseBlock; k < end; ++k) {
      const Rating& r = ratings[static_cast<std::size_t>(k)];
      const double d = static_cast<double>(r.value) - predict(r.user, r.item);
      acc += d * d;
    }
    sums[static_cast<std::size_t>(blk)] = acc;
  }
  double acc = 0.0;
  for (const double s : sums) acc += s;
  const double result =
      total == 0 ? 0.0 : std::sqrt(acc / static_cast<double>(total));
  IBCHOL_HIST("als.rmse_ns", obs::now_ns() - t0);
  return result;
}

double AlsRecommender::train_rmse() const { return rmse(data_.train); }
double AlsRecommender::test_rmse() const { return rmse(data_.test); }

}  // namespace ibchol
