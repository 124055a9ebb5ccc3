#include "core/batch_cholesky.hpp"

#include "core/tuned_overrides.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "obs/counters.hpp"
#include "svc/batch_service.hpp"
#include "util/timer.hpp"

namespace ibchol {

TuningParams recommended_params(int n) {
  // An installed instant-tuning table (src/tune/instant.hpp) wins over the
  // paper defaults: its entries are measured winners for this very host.
  if (auto tuned = lookup_recommended_override(n)) return *tuned;
  TuningParams p;
  p.chunked = true;
  p.chunk_size = 64;
  p.math = MathMode::kIeee;
  // kAuto consults the measured per-(n, isa) dispatch table in the chunk
  // pipeline: the vectorized fused/blocked bodies where they win, the
  // interpreter (also the correctness oracle) on the scalar tier and past
  // the vectorized whole-matrix ceiling.
  p.exec = CpuExec::kAuto;
  if (n <= 20) {
    // Small matrices: full unrolling keeps the whole factorization in
    // registers; tile size and looking order are then irrelevant.
    p.unroll = Unroll::kFull;
    p.nb = n;
    p.looking = Looking::kLeft;
  } else {
    // Larger matrices: partial unrolling, the laziest (fewest-writes)
    // evaluation order, and the largest tile size.
    p.unroll = Unroll::kPartial;
    p.nb = 8;
    p.looking = Looking::kTop;
  }
  return p;
}

BatchLayout BatchCholesky::make_layout(int n, std::int64_t batch,
                                       const TuningParams& params) {
  params.validate(n);
  return params.chunked
             ? BatchLayout::interleaved_chunked(n, batch, params.chunk_size)
             : BatchLayout::interleaved(n, batch);
}

BatchCholesky::BatchCholesky(BatchLayout layout, TuningParams params,
                             Triangle triangle)
    : layout_(layout), params_(params), triangle_(triangle) {
  params_.validate(layout_.n());
  IBCHOL_CHECK(layout_.kind() != LayoutKind::kCanonical ||
                   !params_.chunked,
               "canonical layouts are factored by the traditional path; "
               "chunking does not apply");
  if (params_.chunked) {
    IBCHOL_CHECK(layout_.kind() == LayoutKind::kInterleavedChunked &&
                     layout_.chunk() == params_.chunk_size,
                 "layout chunk size does not match tuning parameters");
  } else {
    IBCHOL_CHECK(layout_.kind() != LayoutKind::kInterleavedChunked,
                 "tuning parameters request no chunking but the layout is "
                 "chunked");
  }
  // Past the small-n executors' ceiling, kAuto routes whole matrices to
  // the tiled task-parallel path (lower triangle, fp32 storage only —
  // upper/mixed configurations keep the traditional executors). The tile
  // program is skipped for routed configurations: at n = 1024 it would
  // enumerate millions of ops the tiled path never interprets.
  use_tiled_ = layout_.n() > kMaxVecWholeDim &&
               params_.exec == CpuExec::kAuto &&
               triangle_ == Triangle::kLower &&
               params_.storage == StoragePrec::kFp32;
  if (!use_tiled_ && layout_.kind() != LayoutKind::kCanonical &&
      params_.unroll == Unroll::kPartial) {
    program_ = build_tile_program(layout_.n(),
                                  params_.effective_nb(layout_.n()),
                                  params_.looking);
  }
}

namespace {

CpuFactorOptions to_cpu_options(const TuningParams& p, int n,
                                Triangle triangle) {
  CpuFactorOptions o;
  o.nb = p.effective_nb(n);
  o.looking = p.looking;
  o.unroll = p.unroll;
  o.math = p.math;
  o.triangle = triangle;
  o.exec = p.exec;
  o.isa = p.isa;
  // For chunked layouts the layout's own chunk is already resident and the
  // pipeline ignores this; for simple interleaved it sizes the pack
  // scratch (0 = the chunk_scratch_lanes sizing rule).
  o.chunk_size = p.chunked ? 0 : p.chunk_size;
  return o;
}

}  // namespace

template <typename T>
FactorResult BatchCholesky::factorize(std::span<T> data,
                                      std::span<std::int32_t> info) const {
  // The drift detector of the instant tuner listens here; the clock only
  // runs when an observer is actually installed.
  if (factor_observer_installed()) {
    Timer t;
    const FactorResult r = factorize_dispatch<T>(layout_, data, info);
    note_factor_seconds(layout_.n(), layout_.batch(), t.seconds());
    return r;
  }
  return factorize_dispatch<T>(layout_, data, info);
}

template <typename T>
FactorResult BatchCholesky::factorize_dispatch(
    const BatchLayout& layout, std::span<T> data,
    std::span<std::int32_t> info) const {
  if (use_tiled_) {
    IBCHOL_COUNT("tiled.routed", 1);
    svc::TiledOptions topts;
    // The paper-era small-n tile sizes (nb ≤ 8) are meaningless at DAG
    // granularity; honor an explicit large tile size, otherwise let the
    // cache-fit rule pick.
    topts.nb = params_.nb >= 16 ? params_.nb : 0;
    topts.lookahead = params_.lookahead;
    return svc::BatchService::global().factor_tiled<T>(layout, data, topts,
                                                       info);
  }
  const CpuFactorOptions opts = to_cpu_options(params_, layout.n(), triangle_);
  // The program is built only for interleaved layouts, and a recovery
  // retry sub-batch of an interleaved batch is interleaved too.
  if (program_.has_value()) {
    return factor_batch_cpu_with_program<T>(layout, data, *program_, opts,
                                            info);
  }
  return factor_batch_cpu<T>(layout, data, opts, info);
}

template <typename T>
RecoveryReport BatchCholesky::factorize_recover(
    std::span<T> data, const RecoveryOptions& recovery,
    std::span<std::int32_t> info) const {
  // Every pass — the first over the whole batch and each shifted retry
  // over its compact sub-batch — runs on factorize()'s route, the tiled
  // DAG included.
  const RecoverFactorFn<T> pass =
      [](void* self, const BatchLayout& layout, std::span<T> d,
         const CpuFactorOptions& /*options*/, const TileProgram* /*program*/,
         std::span<std::int32_t> i) {
        return static_cast<const BatchCholesky*>(self)->factorize_dispatch<T>(
            layout, d, i);
      };
  return factor_batch_recover_via<T>(
      pass, const_cast<BatchCholesky*>(this), layout_, data,
      to_cpu_options(params_, layout_.n(), triangle_), recovery, info);
}

FactorResult BatchCholesky::factorize_mixed(std::span<std::uint16_t> data,
                                            std::span<std::int32_t> info) const {
  IBCHOL_CHECK(params_.storage != StoragePrec::kFp32,
               "factorize_mixed needs TuningParams::storage = kBf16 or kFp16");
  const CpuFactorOptions opts = to_cpu_options(params_, layout_.n(), triangle_);
  if (program_.has_value()) {
    return factor_batch_cpu_mixed_with_program(layout_, data, params_.storage,
                                               *program_, opts, info);
  }
  return factor_batch_cpu_mixed(layout_, data, params_.storage, opts, info);
}

RecoveryReport BatchCholesky::factorize_recover_mixed(
    std::span<std::uint16_t> data, const RecoveryOptions& recovery,
    std::span<std::int32_t> info) const {
  IBCHOL_CHECK(params_.storage != StoragePrec::kFp32,
               "factorize_recover_mixed needs TuningParams::storage = kBf16 "
               "or kFp16");
  const CpuFactorOptions opts = to_cpu_options(params_, layout_.n(), triangle_);
  return factor_batch_recover_mixed(layout_, data, params_.storage, opts,
                                    recovery, info,
                                    program_.has_value() ? &*program_ : nullptr);
}

namespace {

// rhs elements of matrices whose factorization failed, saved around a solve
// so the back-substitution's NaNs never reach the caller.
template <typename T, typename IndexFn>
std::vector<std::pair<std::size_t, T>> save_failed_rhs(
    std::span<const std::int32_t> info, std::int64_t batch, int elems_per_mat,
    std::span<const T> rhs, IndexFn&& index) {
  std::vector<std::pair<std::size_t, T>> saved;
  for (std::int64_t b = 0; b < batch; ++b) {
    if (info[b] == 0) continue;
    for (int e = 0; e < elems_per_mat; ++e) {
      const std::size_t at = index(b, e);
      saved.emplace_back(at, rhs[at]);
    }
  }
  return saved;
}

}  // namespace

template <typename T>
void BatchCholesky::solve(std::span<const T> factored,
                          const BatchVectorLayout& vlayout,
                          std::span<T> rhs,
                          std::span<const std::int32_t> info) const {
  std::vector<std::pair<std::size_t, T>> saved;
  if (!info.empty()) {
    IBCHOL_CHECK(info.size() >= static_cast<std::size_t>(layout_.batch()),
                 "info span too small for batch");
    saved = save_failed_rhs<T>(
        info, layout_.batch(), layout_.n(), rhs,
        [&](std::int64_t b, int e) { return vlayout.index(b, e); });
  }
  solve_batch_cpu<T>(layout_, factored, vlayout, rhs, params_.math,
                     /*num_threads=*/0, triangle_);
  for (const auto& [at, v] : saved) rhs[at] = v;
}

template <typename T>
void BatchCholesky::solve_multi(std::span<const T> factored,
                                const BatchRectLayout& rlayout,
                                std::span<T> rhs,
                                std::span<const std::int32_t> info) const {
  std::vector<std::pair<std::size_t, T>> saved;
  if (!info.empty()) {
    IBCHOL_CHECK(info.size() >= static_cast<std::size_t>(layout_.batch()),
                 "info span too small for batch");
    const int per_mat = rlayout.rows() * rlayout.cols();
    saved = save_failed_rhs<T>(
        info, layout_.batch(), per_mat, rhs,
        [&](std::int64_t b, int e) {
          return rlayout.index(b, e % rlayout.rows(), e / rlayout.rows());
        });
  }
  batch_potrs<T>(layout_, factored, rlayout, rhs, params_.math,
                 /*num_threads=*/0, triangle_);
  for (const auto& [at, v] : saved) rhs[at] = v;
}

template <typename T>
FactorResult factorize_batch(int n, std::int64_t batch,
                             const TuningParams& params, std::span<T> data,
                             std::span<std::int32_t> info) {
  const BatchCholesky chol(BatchCholesky::make_layout(n, batch, params),
                           params);
  return chol.factorize<T>(data, info);
}

template FactorResult BatchCholesky::factorize<float>(
    std::span<float>, std::span<std::int32_t>) const;
template FactorResult BatchCholesky::factorize<double>(
    std::span<double>, std::span<std::int32_t>) const;
template RecoveryReport BatchCholesky::factorize_recover<float>(
    std::span<float>, const RecoveryOptions&, std::span<std::int32_t>) const;
template RecoveryReport BatchCholesky::factorize_recover<double>(
    std::span<double>, const RecoveryOptions&, std::span<std::int32_t>) const;
template void BatchCholesky::solve<float>(
    std::span<const float>, const BatchVectorLayout&, std::span<float>,
    std::span<const std::int32_t>) const;
template void BatchCholesky::solve<double>(
    std::span<const double>, const BatchVectorLayout&, std::span<double>,
    std::span<const std::int32_t>) const;
template void BatchCholesky::solve_multi<float>(
    std::span<const float>, const BatchRectLayout&, std::span<float>,
    std::span<const std::int32_t>) const;
template void BatchCholesky::solve_multi<double>(
    std::span<const double>, const BatchRectLayout&, std::span<double>,
    std::span<const std::int32_t>) const;
template FactorResult factorize_batch<float>(int, std::int64_t,
                                             const TuningParams&,
                                             std::span<float>,
                                             std::span<std::int32_t>);
template FactorResult factorize_batch<double>(int, std::int64_t,
                                              const TuningParams&,
                                              std::span<double>,
                                              std::span<std::int32_t>);

}  // namespace ibchol
