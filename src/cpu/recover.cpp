#include "cpu/recover.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "cpu/simd/convert.hpp"
#include "cpu/thread_util.hpp"
#include "layout/convert.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {

namespace {

// The factored triangle of matrix b, visited column-major: (i, j) pairs with
// i >= j for the lower factorization, i <= j for the upper one.
template <typename Fn>
void for_each_triangle(int n, Triangle triangle, Fn&& fn) {
  for (int j = 0; j < n; ++j) {
    const int i0 = triangle == Triangle::kLower ? j : 0;
    const int i1 = triangle == Triangle::kLower ? n : j + 1;
    for (int i = i0; i < i1; ++i) fn(i, j);
  }
}

// Per-matrix finiteness flags for the factored triangle of every matrix.
// Scanned element-major for the interleaved layouts so the inner loop walks
// the contiguous batch dimension — a per-matrix scan there touches a
// different cache line per element and costs more than the factorization.
template <typename T>
std::vector<std::uint8_t> screen_triangle(const BatchLayout& layout,
                                          const T* data, Triangle triangle,
                                          int num_threads) {
  const int n = layout.n();
  const std::int64_t batch = layout.batch();
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::uint8_t> bad(static_cast<std::size_t>(batch), 0);
  std::vector<std::int32_t> elems;  // e = j*n + i over the factored triangle
  for_each_triangle(n, triangle,
                    [&](int i, int j) { elems.push_back(j * n + i); });

  if (layout.kind() == LayoutKind::kCanonical) {
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(num_threads, batch))
    for (std::int64_t b = 0; b < batch; ++b) {
      const T* m = data + static_cast<std::size_t>(b) * nn * nn;
      for (const std::int32_t e : elems) {
        if (!std::isfinite(static_cast<double>(m[e]))) {
          bad[b] = 1;
          break;
        }
      }
    }
    return bad;
  }

  // Both interleaved layouts are chunks of `chunk` matrices with batch
  // stride 1 inside the chunk (the plain interleaved layout is one chunk of
  // padded_batch matrices).
  const std::int64_t chunk = layout.kind() == LayoutKind::kInterleaved
                                 ? layout.padded_batch()
                                 : layout.chunk();
  const std::int64_t nchunks = (batch + chunk - 1) / chunk;
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(num_threads, nchunks))
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const T* base = data + static_cast<std::size_t>(c) * nn * nn *
                               static_cast<std::size_t>(chunk);
    const std::int64_t lanes = std::min(chunk, batch - c * chunk);
    std::uint8_t* flags = bad.data() + c * chunk;
    for (const std::int32_t e : elems) {
      const T* col = base + static_cast<std::size_t>(e) *
                                static_cast<std::size_t>(chunk);
      for (std::int64_t l = 0; l < lanes; ++l) {
        if (!std::isfinite(static_cast<double>(col[l]))) flags[l] = 1;
      }
    }
  }
  return bad;
}

// The default pass of factor_batch_recover (RecoverFactorFn signature):
// the caller's prebuilt tile program when one applies, the plain driver
// otherwise. It has no tiled branch; BatchCholesky::factorize_recover
// supplies its own route as the pass instead.
template <typename T>
FactorResult run_factor(void* /*ctx*/, const BatchLayout& layout,
                        std::span<T> data, const CpuFactorOptions& options,
                        const TileProgram* program,
                        std::span<std::int32_t> info) {
  if (program != nullptr && layout.kind() != LayoutKind::kCanonical &&
      options.unroll == Unroll::kPartial) {
    return factor_batch_cpu_with_program<T>(layout, data, *program, options,
                                            info);
  }
  return factor_batch_cpu<T>(layout, data, options, info);
}

// Rebuilds the original matrix b (plus `shift` on the diagonal) into a
// dense column-major buffer, from the untouched mirror triangle and the
// pre-saved diagonal.
template <typename T>
void rebuild_shifted(const BatchLayout& layout, const T* data, std::int64_t b,
                     Triangle triangle, const T* diag, double shift,
                     std::span<T> out) {
  const int n = layout.n();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      T v;
      if (i == j) {
        v = static_cast<T>(static_cast<double>(diag[j]) + shift);
      } else if (triangle == Triangle::kLower) {
        // The strictly upper triangle (row < col) was never written.
        v = data[layout.index(b, std::min(i, j), std::max(i, j))];
      } else {
        v = data[layout.index(b, std::max(i, j), std::min(i, j))];
      }
      out[static_cast<std::size_t>(j) * n + i] = v;
    }
  }
}

}  // namespace

template <typename T>
std::int64_t screen_nonfinite(const BatchLayout& layout,
                              std::span<const T> data, Triangle triangle,
                              std::span<std::int32_t> info) {
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  const std::vector<std::uint8_t> bad =
      screen_triangle(layout, data.data(), triangle, /*num_threads=*/0);
  std::int64_t count = 0;
  for (std::int64_t b = 0; b < layout.batch(); ++b) {
    if (bad[static_cast<std::size_t>(b)]) {
      info[b] = kInfoNonFinite;
      ++count;
    }
  }
  return count;
}

template <typename T>
RecoveryReport factor_batch_recover(const BatchLayout& layout,
                                    std::span<T> data,
                                    const CpuFactorOptions& options,
                                    const RecoveryOptions& recovery,
                                    std::span<std::int32_t> info,
                                    const TileProgram* program) {
  return factor_batch_recover_via<T>(&run_factor<T>, nullptr, layout, data,
                                     options, recovery, info, program);
}

template <typename T>
RecoveryReport factor_batch_recover_via(RecoverFactorFn<T> factor_fn,
                                        void* ctx, const BatchLayout& layout,
                                        std::span<T> data,
                                        const CpuFactorOptions& options,
                                        const RecoveryOptions& recovery,
                                        std::span<std::int32_t> info,
                                        const TileProgram* program) {
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  IBCHOL_CHECK(recovery.shift0 > 0.0 && recovery.growth >= 1.0,
               "recovery shifts must be positive and non-decreasing");
  IBCHOL_CHECK(recovery.max_attempts >= 0, "max_attempts must be >= 0");

  const int n = layout.n();
  const std::int64_t batch = layout.batch();
  const std::size_t tri_elems =
      static_cast<std::size_t>(n) * (n + 1) / 2;
  RecoveryReport report;

  std::vector<std::int32_t> owned_info;
  std::span<std::int32_t> st = info;
  if (st.empty()) {
    owned_info.assign(static_cast<std::size_t>(batch), 0);
    st = owned_info;
  }

  // 1. Screen: stash the factored-triangle contents of non-finite inputs so
  // they can be handed back exactly as supplied.
  std::vector<std::int64_t> nonfinite;
  {
    IBCHOL_TRACE_SPAN("screen", "recover", batch);
    const std::vector<std::uint8_t> bad =
        screen_triangle(layout, data.data(), options.triangle,
                        options.num_threads);
    for (std::int64_t b = 0; b < batch; ++b) {
      if (bad[static_cast<std::size_t>(b)]) nonfinite.push_back(b);
    }
  }
  std::vector<T> stash(nonfinite.size() * tri_elems);
  for (std::size_t k = 0; k < nonfinite.size(); ++k) {
    T* out = stash.data() + k * tri_elems;
    std::size_t e = 0;
    for_each_triangle(n, options.triangle, [&](int i, int j) {
      out[e++] = data[layout.index(nonfinite[k], i, j)];
    });
  }

  // 2. Save every diagonal — the only factored-triangle elements whose
  // originals cannot be rebuilt from the mirror triangle. Element-major for
  // the interleaved layouts, like the screen above.
  std::vector<T> diag(static_cast<std::size_t>(batch) * n);
  if (layout.kind() == LayoutKind::kCanonical) {
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(options.num_threads, batch))
    for (std::int64_t b = 0; b < batch; ++b) {
      for (int i = 0; i < n; ++i) {
        diag[static_cast<std::size_t>(b) * n + i] =
            data[layout.index(b, i, i)];
      }
    }
  } else {
    const std::int64_t chunk = layout.kind() == LayoutKind::kInterleaved
                                   ? layout.padded_batch()
                                   : layout.chunk();
    const std::int64_t nchunks = (batch + chunk - 1) / chunk;
    const auto nn = static_cast<std::size_t>(n);
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(options.num_threads, nchunks))
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const T* base = data.data() + static_cast<std::size_t>(c) * nn * nn *
                                        static_cast<std::size_t>(chunk);
      const std::int64_t lanes = std::min(chunk, batch - c * chunk);
      for (int i = 0; i < n; ++i) {
        const T* col = base + (static_cast<std::size_t>(i) * nn + i) *
                                  static_cast<std::size_t>(chunk);
        for (std::int64_t l = 0; l < lanes; ++l) {
          diag[static_cast<std::size_t>(c * chunk + l) * nn + i] = col[l];
        }
      }
    }
  }

  // 3. First factorization pass over the whole batch.
  {
    IBCHOL_TRACE_SPAN("first_pass", "recover", batch);
    (void)factor_fn(ctx, layout, data, options, program, st);
  }

  // 4. Hand non-finite inputs back untouched under the distinct code.
  for (std::size_t k = 0; k < nonfinite.size(); ++k) {
    const T* in = stash.data() + k * tri_elems;
    std::size_t e = 0;
    for_each_triangle(n, options.triangle, [&](int i, int j) {
      data[layout.index(nonfinite[k], i, j)] = in[e++];
    });
    st[nonfinite[k]] = kInfoNonFinite;
  }
  report.nonfinite = static_cast<std::int64_t>(nonfinite.size());

  // 5. Escalating shifted retries on the compact sub-batch of failures.
  std::vector<std::int64_t> pending;
  for (std::int64_t b = 0; b < batch; ++b) {
    if (st[b] > 0) pending.push_back(b);
  }
  report.failed = static_cast<std::int64_t>(pending.size());

  std::vector<MatrixRecovery> entries;
  entries.reserve(nonfinite.size() + pending.size());
  for (const std::int64_t b : nonfinite) {
    entries.push_back({b, kInfoNonFinite, 0, 0.0, false});
  }
  for (const std::int64_t b : pending) {
    entries.push_back({b, st[b], 0, 0.0, false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const MatrixRecovery& a, const MatrixRecovery& b) {
              return a.index < b.index;
            });
  auto entry_for = [&](std::int64_t b) -> MatrixRecovery& {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), b,
        [](const MatrixRecovery& e, std::int64_t v) { return e.index < v; });
    return *it;
  };

  std::vector<T> dense(static_cast<std::size_t>(n) * n);
  for (int attempt = 1;
       attempt <= recovery.max_attempts && !pending.empty(); ++attempt) {
    // One span per escalation level; the payload is the attempt number,
    // the retried-matrix tally goes to the counter registry.
    IBCHOL_TRACE_SPAN("retry", "recover", attempt);
    IBCHOL_COUNT("recover.retry_matrices", pending.size());
    const double base =
        recovery.shift0 * std::pow(recovery.growth, attempt - 1);
    const std::int64_t m = static_cast<std::int64_t>(pending.size());
    const BatchLayout rlayout = layout.kind() == LayoutKind::kCanonical
                                    ? BatchLayout::canonical(n, m)
                                    : BatchLayout::interleaved(n, m);
    // AlignedBuffer, not std::vector: the retry batch goes back through the
    // configured executor, and the vectorized one requires 64-byte aligned
    // lane-block bases.
    AlignedBuffer<T> rdata(rlayout.size_elems());
    std::vector<double> shifts(pending.size());
    for (std::int64_t k = 0; k < m; ++k) {
      const std::int64_t b = pending[static_cast<std::size_t>(k)];
      double scale = 1.0;
      if (recovery.relative) {
        double acc = 0.0;
        for (int i = 0; i < n; ++i) {
          acc += std::abs(
              static_cast<double>(diag[static_cast<std::size_t>(b) * n + i]));
        }
        scale = acc / n;
        if (!(scale > 0.0)) scale = 1.0;
      }
      shifts[static_cast<std::size_t>(k)] = base * scale;
      rebuild_shifted(layout, data.data(), b, options.triangle,
                      diag.data() + static_cast<std::size_t>(b) * n,
                      shifts[static_cast<std::size_t>(k)], std::span<T>(dense));
      insert_matrix<T>(rlayout, rdata.span(), k, dense);
    }
    fill_padding_identity<T>(rlayout, rdata.span());

    std::vector<std::int32_t> rinfo(pending.size());
    (void)factor_fn(ctx, rlayout, rdata.span(), options, program, rinfo);

    std::vector<std::int64_t> still;
    for (std::int64_t k = 0; k < m; ++k) {
      const std::int64_t b = pending[static_cast<std::size_t>(k)];
      MatrixRecovery& entry = entry_for(b);
      entry.attempts = attempt;
      if (rinfo[static_cast<std::size_t>(k)] != 0) {
        still.push_back(b);
        continue;
      }
      // Scatter the recovered factor back; the mirror triangle stays as the
      // caller supplied it, exactly like a first-try success.
      for_each_triangle(n, options.triangle, [&](int i, int j) {
        data[layout.index(b, i, j)] = rdata[rlayout.index(k, i, j)];
      });
      st[b] = 0;
      entry.shift = shifts[static_cast<std::size_t>(k)];
      entry.recovered = true;
      ++report.recovered;
    }
    pending = std::move(still);
  }

  report.unrecoverable =
      report.nonfinite + static_cast<std::int64_t>(pending.size());
  report.matrices = std::move(entries);
  return report;
}

std::int64_t screen_nonfinite_mixed(const BatchLayout& layout,
                                    std::span<const std::uint16_t> data,
                                    StoragePrec storage, Triangle triangle,
                                    std::span<std::int32_t> info) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "reduced-precision storage runs interleaved layouts");
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  const int n = layout.n();
  const std::int64_t batch = layout.batch();
  std::vector<std::int32_t> elems;
  for_each_triangle(n, triangle,
                    [&](int i, int j) { elems.push_back(j * n + i); });
  // Same element-major walk as screen_triangle, but the finiteness test is
  // a bit mask on the 16-bit word (exponent all-ones) — no widening pass.
  const std::int64_t chunk = layout.kind() == LayoutKind::kInterleaved
                                 ? layout.padded_batch()
                                 : layout.chunk();
  const std::int64_t nchunks = (batch + chunk - 1) / chunk;
  std::vector<std::uint8_t> bad(static_cast<std::size_t>(batch), 0);
#pragma omp parallel for schedule(static) \
    num_threads(resolve_threads(0, nchunks))
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::uint16_t* base =
        data.data() + static_cast<std::size_t>(c) *
                          static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(chunk);
    const std::int64_t lanes = std::min(chunk, batch - c * chunk);
    std::uint8_t* flags = bad.data() + c * chunk;
    for (const std::int32_t e : elems) {
      const std::uint16_t* col = base + static_cast<std::size_t>(e) *
                                            static_cast<std::size_t>(chunk);
      for (std::int64_t l = 0; l < lanes; ++l) {
        if (is_nonfinite_prec(col[l], storage)) flags[l] = 1;
      }
    }
  }
  std::int64_t count = 0;
  for (std::int64_t b = 0; b < batch; ++b) {
    if (bad[static_cast<std::size_t>(b)]) {
      info[b] = kInfoNonFinite;
      ++count;
    }
  }
  return count;
}

RecoveryReport factor_batch_recover_mixed(const BatchLayout& layout,
                                          std::span<std::uint16_t> data,
                                          StoragePrec storage,
                                          const CpuFactorOptions& options,
                                          const RecoveryOptions& recovery,
                                          std::span<std::int32_t> info,
                                          const TileProgram* program) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "reduced-precision storage runs interleaved layouts");
  IBCHOL_CHECK(storage != StoragePrec::kFp32,
               "mixed recovery is for reduced storage precisions");
  IBCHOL_CHECK(data.size() >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  const SimdIsa cisa = resolve_convert_isa();
  AlignedBuffer<float> wide(layout.size_elems());
  const auto count = static_cast<std::int64_t>(layout.size_elems());
  // Widening preserves NaN/Inf exactly, so the fp32 screen sees the same
  // non-finite set a bit-level u16 screen would.
  widen_row(cisa, storage, data.data(), wide.data(), count);
  RecoveryReport report = factor_batch_recover<float>(
      layout, wide.span(), options, recovery, info, program);
  narrow_row(cisa, storage, wide.data(), data.data(), count,
             /*nt_stores=*/false);
  return report;
}

template std::int64_t screen_nonfinite<float>(const BatchLayout&,
                                              std::span<const float>, Triangle,
                                              std::span<std::int32_t>);
template std::int64_t screen_nonfinite<double>(const BatchLayout&,
                                               std::span<const double>,
                                               Triangle,
                                               std::span<std::int32_t>);
template RecoveryReport factor_batch_recover<float>(
    const BatchLayout&, std::span<float>, const CpuFactorOptions&,
    const RecoveryOptions&, std::span<std::int32_t>, const TileProgram*);
template RecoveryReport factor_batch_recover<double>(
    const BatchLayout&, std::span<double>, const CpuFactorOptions&,
    const RecoveryOptions&, std::span<std::int32_t>, const TileProgram*);
template RecoveryReport factor_batch_recover_via<float>(
    RecoverFactorFn<float>, void*, const BatchLayout&, std::span<float>,
    const CpuFactorOptions&, const RecoveryOptions&, std::span<std::int32_t>,
    const TileProgram*);
template RecoveryReport factor_batch_recover_via<double>(
    RecoverFactorFn<double>, void*, const BatchLayout&, std::span<double>,
    const CpuFactorOptions&, const RecoveryOptions&, std::span<std::int32_t>,
    const TileProgram*);

}  // namespace ibchol
