#include "cpu/batch_factor.hpp"

#include <algorithm>
#include <limits>

#include "cpu/chunk_pipeline.hpp"
#include "cpu/thread_util.hpp"
#include "cpu/tile_exec.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace ibchol {

namespace {

template <typename T>
FactorResult factor_canonical(const BatchLayout& layout, std::span<T> data,
                              const CpuFactorOptions& options,
                              std::span<std::int32_t> info) {
  const std::int64_t batch = layout.batch();
  IBCHOL_TRACE_SPAN("factor_canonical", "cpu", layout.n());
  IBCHOL_COUNT("cpu.exec.canonical", 1);
  std::int64_t failed = 0;
  std::int64_t first_failed = std::numeric_limits<std::int64_t>::max();
  // One contiguous block of matrices per thread: the static schedule.
  const int threads = resolve_threads(options.num_threads);
#pragma omp parallel for schedule(static) num_threads(threads) \
    reduction(+ : failed) reduction(min : first_failed)
  for (int t = 0; t < threads; ++t) {
    factor_canonical_range(layout, data.data(), options.nb, options.triangle,
                           batch * t / threads, batch * (t + 1) / threads,
                           info, failed, first_failed);
  }
  // The min-reduction identity (int64 max) must never escape as a matrix
  // index; finalize_factor_result maps it back to the -1 convention the
  // interleaved path uses, keeping both paths consistent.
  return finalize_factor_result(failed, first_failed);
}

}  // namespace

template <typename T>
FactorResult factor_batch_cpu(const BatchLayout& layout, std::span<T> data,
                              const CpuFactorOptions& options,
                              std::span<std::int32_t> info) {
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  IBCHOL_TRACE_SPAN("factor_batch", "cpu", layout.batch());
  if (layout.kind() == LayoutKind::kCanonical) {
    return factor_canonical(layout, data, options, info);
  }
  if (options.unroll == Unroll::kFull) {
    return run_chunk_pipeline<T>(layout, data, nullptr, options, info);
  }
  const int nb = std::min(options.nb, layout.n());
  const TileProgram program =
      build_tile_program(layout.n(), nb, options.looking);
  return run_chunk_pipeline<T>(layout, data, &program, options, info);
}

template <typename T>
FactorResult factor_batch_cpu_with_program(const BatchLayout& layout,
                                           std::span<T> data,
                                           const TileProgram& program,
                                           const CpuFactorOptions& options,
                                           std::span<std::int32_t> info) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "tile programs run on interleaved layouts");
  IBCHOL_CHECK(program.n == layout.n(), "program/layout dimension mismatch");
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  return run_chunk_pipeline<T>(layout, data, &program, options, info);
}

FactorResult factor_batch_cpu_mixed(const BatchLayout& layout,
                                    std::span<std::uint16_t> data,
                                    StoragePrec storage,
                                    const CpuFactorOptions& options,
                                    std::span<std::int32_t> info) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "reduced-precision storage runs interleaved layouts");
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  IBCHOL_TRACE_SPAN("factor_batch", "cpu", layout.batch());
  if (options.unroll == Unroll::kFull) {
    return run_chunk_pipeline<float>(layout, data, nullptr, options, info,
                                     storage);
  }
  const int nb = std::min(options.nb, layout.n());
  const TileProgram program =
      build_tile_program(layout.n(), nb, options.looking);
  return run_chunk_pipeline<float>(layout, data, &program, options, info,
                                   storage);
}

FactorResult factor_batch_cpu_mixed_with_program(
    const BatchLayout& layout, std::span<std::uint16_t> data,
    StoragePrec storage, const TileProgram& program,
    const CpuFactorOptions& options, std::span<std::int32_t> info) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "tile programs run on interleaved layouts");
  IBCHOL_CHECK(program.n == layout.n(), "program/layout dimension mismatch");
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  return run_chunk_pipeline<float>(layout, data, &program, options, info,
                                   storage);
}

template FactorResult factor_batch_cpu<float>(const BatchLayout&,
                                              std::span<float>,
                                              const CpuFactorOptions&,
                                              std::span<std::int32_t>);
template FactorResult factor_batch_cpu<double>(const BatchLayout&,
                                               std::span<double>,
                                               const CpuFactorOptions&,
                                               std::span<std::int32_t>);
template FactorResult factor_batch_cpu_with_program<float>(
    const BatchLayout&, std::span<float>, const TileProgram&,
    const CpuFactorOptions&, std::span<std::int32_t>);
template FactorResult factor_batch_cpu_with_program<double>(
    const BatchLayout&, std::span<double>, const TileProgram&,
    const CpuFactorOptions&, std::span<std::int32_t>);

}  // namespace ibchol
