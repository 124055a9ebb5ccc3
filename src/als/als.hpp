// Alternating Least Squares on top of the batch Cholesky API.
//
// Each half-iteration fixes one factor matrix and solves, for every user
// (or item), the f×f regularized normal-equation system
//     (Σ_{i∈Ω} v_i v_iᵀ + λ·|Ω|·I) x = Σ_{i∈Ω} r_i v_i.
// All systems of a half-iteration are assembled into one interleaved
// chunked batch and factored/solved by the library — precisely the batch
// workload that motivated the paper (reference [10]).
#pragma once

#include <cstdint>
#include <vector>

#include "als/ratings.hpp"
#include "kernels/variant.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {

/// ALS configuration.
struct AlsOptions {
  int rank = 16;            ///< latent dimension f == batch matrix size
  double lambda = 0.05;     ///< ridge regularization (scaled by |Ω|)
  int iterations = 10;
  TuningParams tuning;      ///< batch Cholesky tuning for the solves
  std::uint64_t seed = 99;
};

/// Per-iteration convergence record.
struct AlsIteration {
  int iteration = 0;
  double train_rmse = 0.0;
  double test_rmse = 0.0;
  double factor_seconds = 0.0;  ///< time spent in batched factor+solve
};

/// ALS trainer. Holds the factor matrices; run() performs the iterations.
class AlsRecommender {
 public:
  AlsRecommender(const RatingsDataset& data, AlsOptions options);

  /// Runs options.iterations alternating updates; returns the history.
  std::vector<AlsIteration> run();

  /// Predicted rating for (user, item).
  [[nodiscard]] float predict(int user, int item) const;

  [[nodiscard]] double train_rmse() const;
  [[nodiscard]] double test_rmse() const;

  [[nodiscard]] const std::vector<float>& user_factors() const {
    return user_factors_;
  }
  [[nodiscard]] const std::vector<float>& item_factors() const {
    return item_factors_;
  }
  [[nodiscard]] const AlsOptions& options() const { return options_; }

 private:
  /// One side's batch (normal equations and right-hand sides), kept across
  /// iterations. Each call rewrites every real lane and zeroes the padding
  /// lanes, so the factorization sees the bytes a fresh buffer would hold.
  struct SideBuffers {
    AlignedBuffer<float> mats;
    AlignedBuffer<float> rhs;
  };

  /// One half-iteration: updates `factors` (users or items) from the fixed
  /// side; `other` is the Rating field that indexes `fixed`. Returns seconds
  /// spent inside batched factor+solve.
  double update_side(const std::vector<std::vector<std::int32_t>>& adjacency,
                     std::int32_t Rating::*other,
                     const std::vector<float>& fixed,
                     std::vector<float>& factors, SideBuffers& side);

  [[nodiscard]] double rmse(const std::vector<Rating>& ratings) const;

  const RatingsDataset& data_;
  AlsOptions options_;
  std::vector<float> user_factors_;  ///< num_users × rank, row-major
  std::vector<float> item_factors_;  ///< num_items × rank, row-major
  SideBuffers user_side_;
  SideBuffers item_side_;
};

}  // namespace ibchol
