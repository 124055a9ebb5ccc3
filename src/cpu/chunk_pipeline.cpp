#include "cpu/chunk_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "cpu/reference.hpp"
#include "cpu/simd/convert.hpp"
#include "cpu/simd/isa.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "cpu/thread_util.hpp"
#include "cpu/tile_exec.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/aligned_buffer.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#define IBCHOL_HAVE_STREAM_STORES 1
#endif

namespace ibchol {

int chunk_scratch_lanes(int n, std::size_t elem_size) {
  const std::size_t chunk_bytes =
      static_cast<std::size_t>(n) * n * kLaneBlock * elem_size;
  std::int64_t lanes = chunk_bytes == 0
                           ? 512
                           : static_cast<std::int64_t>(kChunkScratchBudget /
                                                       chunk_bytes) *
                                 kLaneBlock;
  lanes = std::clamp<std::int64_t>(lanes, kLaneBlock, 512);
  return static_cast<int>(lanes);
}

namespace {

// Instant-tuning override table for the kAuto dispatch below: an immutable
// snapshot swapped atomically, so the hot path is one lock-free load.
std::atomic<std::shared_ptr<const std::map<std::pair<int, SimdIsa>, CpuExec>>>&
exec_override_slot() {
  static std::atomic<
      std::shared_ptr<const std::map<std::pair<int, SimdIsa>, CpuExec>>>
      slot;
  return slot;
}

}  // namespace

void set_cpu_exec_overrides(
    std::shared_ptr<const std::map<std::pair<int, SimdIsa>, CpuExec>> table) {
  exec_override_slot().store(std::move(table));
}

CpuExec resolve_cpu_exec(int n, SimdIsa isa) {
  // Measured crossovers on the CPU substrate (AVX-512 host, see DESIGN §8
  // for provenance): with the chunk-resident pipeline the vectorized
  // executor's fused (n ≤ kMaxVecFusedDim) and cache-blocked
  // (n ≥ kVecBlockedMinDim) in-place bodies win at every n the runtime-n
  // body supports, on both AVX tiers. The scalar tier goes to the
  // interpreter (whose lane loops the compiler autovectorizes with the
  // build's own -march flags), as does any n past kMaxVecWholeDim, where
  // the vectorized path would fall back to the interpreter's scratch
  // triangle anyway.
  struct Row {
    int max_n;
    CpuExec exec;
  };
  static constexpr Row kAvxTable[] = {
      {kMaxVecWholeDim, CpuExec::kVectorized},
      {std::numeric_limits<int>::max(), CpuExec::kInterpreter},
  };
  static constexpr Row kScalarTable[] = {
      {std::numeric_limits<int>::max(), CpuExec::kInterpreter},
  };
  // Past the whole-dim ceiling every small-n executor degrades (the
  // vectorized path falls back to the interpreter's scratch triangle): count
  // it, so a facade that should have routed to the tiled large-N path is
  // visible in the obs snapshot rather than silently slow.
  if (n > kMaxVecWholeDim) IBCHOL_COUNT("cpu.large_n_fallback", 1);
  const SimdIsa tier = resolve_simd_isa(isa);
  // Measured instant-tuning winners override the static crossover table
  // for their exact (n, tier); everything else keeps the seeded defaults.
  if (const auto overrides = exec_override_slot().load()) {
    const auto it = overrides->find({n, tier});
    if (it != overrides->end() && it->second != CpuExec::kAuto) {
      IBCHOL_COUNT("tune.exec_override", 1);
      return it->second;
    }
  }
  const Row* table = tier == SimdIsa::kScalar ? kScalarTable : kAvxTable;
  for (const Row* r = table;; ++r) {
    if (n <= r->max_n) return r->exec;
  }
}

namespace {

// Largest cache size advertised for cpu0 in sysfs (Linux), 0 when unknown.
// Sizes are reported like "262144K"; unsuffixed values are bytes.
std::size_t detect_llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/sys/devices/system/cpu/cpu0/cache/index" +
                             std::to_string(i) + "/size";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    char buf[32] = {};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    if (got == 0) continue;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(buf, &end, 10);
    std::size_t bytes = static_cast<std::size_t>(v);
    if (end != nullptr && (*end == 'K' || *end == 'k')) bytes <<= 10;
    if (end != nullptr && (*end == 'M' || *end == 'm')) bytes <<= 20;
    best = std::max(best, bytes);
  }
  return best;
}

}  // namespace

std::size_t pack_threshold_bytes() {
  static const std::size_t threshold = [] {
    const std::size_t llc = detect_llc_bytes();
    return std::max<std::size_t>(kPackMinBytes, 4 * llc);
  }();
  return threshold;
}

FactorResult finalize_factor_result(std::int64_t failed,
                                    std::int64_t first_failed) {
  if (failed == 0 ||
      first_failed == std::numeric_limits<std::int64_t>::max()) {
    return {failed, -1};
  }
  return {failed, first_failed};
}

template <typename T>
void pack_chunk(const T* src, std::int64_t src_stride, T* dst,
                std::int64_t lanes, std::int64_t elems) {
  const std::size_t row_bytes = static_cast<std::size_t>(lanes) * sizeof(T);
  for (std::int64_t e = 0; e < elems; ++e) {
    std::memcpy(dst + e * lanes, src + e * src_stride, row_bytes);
  }
}

namespace {

// Streams `bytes` (a multiple of 16) from 16-byte-aligned src to
// 16-byte-aligned dst with non-temporal stores. Caller issues the fence.
#if defined(IBCHOL_HAVE_STREAM_STORES)
inline void stream_row(void* dst, const void* src, std::size_t bytes) {
  auto* d = static_cast<__m128i*>(dst);
  auto* s = static_cast<const __m128i*>(src);
  for (std::size_t i = 0; i < bytes / 16; ++i) {
    _mm_stream_si128(d + i, _mm_load_si128(s + i));
  }
}
#endif

}  // namespace

template <typename T>
void unpack_chunk(const T* src, std::int64_t lanes, T* dst,
                  std::int64_t dst_stride, std::int64_t elems,
                  bool nt_stores) {
  const std::size_t row_bytes = static_cast<std::size_t>(lanes) * sizeof(T);
#if defined(IBCHOL_HAVE_STREAM_STORES)
  // Lane counts are multiples of kLaneBlock, so rows are multiples of 64
  // bytes and the scratch side is always aligned; only a misaligned
  // destination base (callers not using AlignedBuffer) forces the fallback.
  const bool stream =
      nt_stores &&
      reinterpret_cast<std::uintptr_t>(dst) % 16 == 0 &&
      dst_stride * static_cast<std::int64_t>(sizeof(T)) % 16 == 0;
  if (stream) {
    for (std::int64_t e = 0; e < elems; ++e) {
      stream_row(dst + e * dst_stride, src + e * lanes, row_bytes);
    }
    _mm_sfence();
    return;
  }
#else
  (void)nt_stores;
#endif
  for (std::int64_t e = 0; e < elems; ++e) {
    std::memcpy(dst + e * dst_stride, src + e * lanes, row_bytes);
  }
}

namespace {

// Issues prefetches for the leading kPrefetchCols columns of the lane
// block at `base` (element (i,j) of lane l at base[(j*n+i)*estride + l]).
// The lines arrive while the current block's column sweeps run; rw=1
// because the factorization writes every element it reads.
template <typename T>
inline void prefetch_lane_block(const T* base, int n, std::int64_t estride) {
  const std::int64_t rows =
      std::min<std::int64_t>(static_cast<std::int64_t>(n) * kPrefetchCols,
                             static_cast<std::int64_t>(n) * n);
  constexpr std::size_t kRowBytes = kLaneBlock * sizeof(T);
  for (std::int64_t e = 0; e < rows; ++e) {
    const char* p = reinterpret_cast<const char*>(base + e * estride);
    for (std::size_t b = 0; b < kRowBytes; b += 64) {
      __builtin_prefetch(p + b, 1, 3);
    }
  }
}

// Merges a lane block's local info into the caller-visible info span and
// the reduction-local counters. `start` is the block's first matrix index.
void merge_lane_info(const std::int32_t* local, std::int64_t start,
                     std::int64_t batch, std::span<std::int32_t> info,
                     std::int64_t& failed, std::int64_t& first_failed) {
  const std::int64_t count =
      std::min<std::int64_t>(kLaneBlock, batch - start);
  for (std::int64_t l = 0; l < count; ++l) {
    if (!info.empty()) info[start + l] = local[l];
    if (local[l] != 0) {
      ++failed;
      first_failed = std::min(first_failed, start + l);
    }
  }
}

// Runs the resolved executor for one lane block; `wm_scratch` is the
// worker's whole-matrix scratch (null unless plan.need_wm_scratch).
template <typename T>
inline void run_lane_block(const ChunkExecPlan<T>& plan, T* base,
                           std::int64_t estride, std::int32_t* local_info,
                           T* wm_scratch) {
  if (plan.exec == CpuExec::kVectorized) {
    if (plan.whole_matrix) {
      // Fused (compile-time n), then the cache-blocked panel body once
      // the lane block outgrows L1, then the unblocked runtime-n body,
      // then the interpreter's scratch-triangle path past
      // kMaxVecWholeDim.
      if (plan.vk->fused(plan.n, plan.math, base, estride, local_info,
                         plan.triangle)) {
        return;
      }
      if (plan.n >= kVecBlockedMinDim &&
          plan.vk->blocked(plan.n, plan.math, base, estride, local_info,
                           plan.triangle)) {
        return;
      }
      if (plan.vk->whole_matrix(plan.n, plan.math, base, estride, local_info,
                                plan.triangle)) {
        return;
      }
      execute_whole_matrix_lane_block<T>(plan.n, plan.math, base, estride,
                                         local_info, wm_scratch,
                                         plan.triangle);
    } else {
      plan.vk->run_program(*plan.program, plan.math, base, estride, local_info,
                           plan.triangle);
    }
  } else if (plan.whole_matrix) {
    execute_whole_matrix_lane_block<T>(plan.n, plan.math, base, estride,
                                       local_info, wm_scratch, plan.triangle);
  } else {
    execute_program_lane_block<T>(*plan.program, plan.math, base, estride,
                                  local_info, plan.triangle);
  }
}

// Env override for the write-back policy: IBCHOL_CHUNK_NT=1 forces
// streaming stores, =0 forbids them, unset defers to the footprint rule.
bool resolve_nt_stores(std::size_t batch_bytes) {
  if (const char* env = std::getenv("IBCHOL_CHUNK_NT")) {
    return env[0] == '1';
  }
  return batch_bytes >= kNtStoreMinBytes;
}

}  // namespace

void fold_unit_counters(const ChunkUnitCounters& counters) {
  if (counters.packed_units > 0) {
    IBCHOL_COUNT("pipeline.packed_chunks", counters.packed_units);
  }
  if (counters.inplace_lane_blocks > 0) {
    IBCHOL_COUNT("pipeline.inplace_lane_blocks",
                 counters.inplace_lane_blocks);
  }
  if (counters.prefetched_lane_blocks > 0) {
    IBCHOL_COUNT("pipeline.prefetched_lane_blocks",
                 counters.prefetched_lane_blocks);
  }
  if (counters.nt_store_bytes > 0) {
    IBCHOL_COUNT("pipeline.nt_store_bytes", counters.nt_store_bytes);
  }
}

// IBCHOL_COUNT caches its registry lookup per call site, so each executor
// needs its own literal.
void note_exec_dispatch(CpuExec exec) {
  switch (exec) {
    case CpuExec::kInterpreter:
      IBCHOL_COUNT("cpu.exec.interpreter", 1);
      break;
    case CpuExec::kVectorized:
      IBCHOL_COUNT("cpu.exec.vectorized", 1);
      break;
    case CpuExec::kAuto:
      break;  // resolved before this is called
  }
}

namespace {

// The executor half of a plan, shared by the full-precision and the mixed
// planners: kAuto dispatch, unrolling, the bound kernel tables, and the
// whole-matrix scratch the resolved body needs.
template <typename T>
ChunkExecPlan<T> resolve_plan_exec(const BatchLayout& layout,
                                   const TileProgram* program,
                                   const CpuFactorOptions& options) {
  ChunkExecPlan<T> plan;
  plan.layout = layout;
  plan.n = layout.n();

  // kAuto: consult the measured dispatch table. When it picks the
  // vectorized executor the whole-matrix pipeline (fused/blocked) is the
  // winning strategy at every supported n, so full unrolling is implied;
  // when it picks the interpreter the caller's unrolling choice stands
  // (the table only fires for n where both unrollings are valid).
  plan.exec = options.exec;
  plan.whole_matrix = options.unroll == Unroll::kFull;
  if (plan.exec == CpuExec::kAuto) {
    plan.exec = resolve_cpu_exec(plan.n, options.isa);
    if (plan.exec == CpuExec::kVectorized) plan.whole_matrix = true;
  }
  IBCHOL_CHECK(plan.whole_matrix || program != nullptr,
               "partial unrolling requires a tile program");

  plan.math = options.math;
  plan.triangle = options.triangle;
  plan.program = program;
  if (plan.exec == CpuExec::kVectorized) {
    // Tier resolution (cpuid + IBCHOL_SIMD_ISA override) happens once, out
    // here; the intrinsic bodies then run with no per-block branching.
    plan.vk = &vec_kernels<T>(options.isa);
  }
  plan.need_wm_scratch =
      plan.whole_matrix &&
      (plan.exec != CpuExec::kVectorized || plan.n > kMaxVecWholeDim);
  plan.wm_scratch_elems =
      plan.need_wm_scratch ? whole_matrix_scratch_elems(plan.n) : 0;
  return plan;
}

}  // namespace

template <typename T>
ChunkExecPlan<T> plan_chunk_exec(const BatchLayout& layout, const T* data,
                                 const TileProgram* program,
                                 const CpuFactorOptions& options) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "the chunk pipeline runs interleaved layouts");
  ChunkExecPlan<T> plan = resolve_plan_exec<T>(layout, program, options);
  const std::int64_t padded = layout.padded_batch();
  const std::int64_t elems = static_cast<std::int64_t>(plan.n) * plan.n;

  // Pack only the simple-interleaved layout, and only when a chunk is a
  // strict subset of the batch (otherwise scratch would be a copy of the
  // whole buffer with the identical stride). Packing only copies bytes, so
  // every executor follows the same rule.
  if (layout.kind() == LayoutKind::kInterleaved) {
    // Automatic sizing only packs once the batch has clearly outgrown the
    // cache hierarchy (pack_threshold_bytes); below that the in-place
    // sweeps hit cache anyway and the pack/unpack round trip is pure
    // overhead. An explicit chunk_size is the autotuner's knob and is
    // always honored.
    std::int64_t c = options.chunk_size;
    if (c == 0 && layout.size_elems() * sizeof(T) >= pack_threshold_bytes()) {
      c = chunk_scratch_lanes(plan.n, sizeof(T));
    }
    IBCHOL_CHECK(c % kLaneBlock == 0,
                 "pipeline chunk size must be a multiple of the lane block");
    if (c > 0 && c < padded) plan.pack_lanes = static_cast<int>(c);
  }

  if (plan.exec == CpuExec::kVectorized && plan.pack_lanes == 0) {
    // In-place execution issues aligned vector loads/stores straight into
    // the caller's buffer; AlignedBuffer plus the interleaved layouts
    // guarantee this by construction. (The packed path runs on its own
    // scratch, which is aligned by construction, and touches the caller's
    // buffer only through memcpy/streaming rows.)
    IBCHOL_CHECK(reinterpret_cast<std::uintptr_t>(data) % 64 == 0,
                 "vectorized executor requires 64-byte aligned batch data "
                 "(use AlignedBuffer)");
    IBCHOL_CHECK(
        layout.chunk() * static_cast<std::int64_t>(sizeof(T)) % 64 == 0,
        "vectorized executor requires the element stride to be a multiple "
        "of 64 bytes");
  }

  if (plan.pack_lanes > 0) {
    plan.unit_lanes = plan.pack_lanes;
    plan.nt_stores = resolve_nt_stores(layout.size_elems() * sizeof(T));
    plan.pack_scratch_elems =
        static_cast<std::size_t>(elems) * plan.pack_lanes;
  } else if (layout.kind() == LayoutKind::kInterleavedChunked) {
    // The address map is already chunk-local; one unit per layout chunk
    // keeps a whole chunk on one worker, the schedule the layout exists
    // for.
    plan.unit_lanes = layout.chunk();
  } else {
    // Simple interleaved batch small enough to stay in place: the unit is
    // a locality granule of the same size the pack scratch would use, so
    // the traversal still walks a cache-sized window of lanes at a time.
    plan.unit_lanes =
        std::min<std::int64_t>(padded, chunk_scratch_lanes(plan.n, sizeof(T)));
  }
  plan.num_units = (padded + plan.unit_lanes - 1) / plan.unit_lanes;
  return plan;
}

template <typename T>
void pack_unit(const ChunkExecPlan<T>& plan, const T* data, std::int64_t unit,
               T* scratch) {
  IBCHOL_TRACE_SPAN("pack", "pipeline", unit);
  const std::int64_t c0 = plan.first_lane(unit);
  pack_chunk(data + c0, plan.layout.padded_batch(), scratch,
             plan.lanes_of(unit),
             static_cast<std::int64_t>(plan.n) * plan.n);
}

template <typename T>
void factor_unit(const ChunkExecPlan<T>& plan, T* data, std::int64_t unit,
                 T* pack_scratch, T* wm_scratch, std::span<std::int32_t> info,
                 std::int64_t& failed, std::int64_t& first_failed,
                 ChunkUnitCounters& counters) {
  IBCHOL_TRACE_SPAN("factor", "pipeline", unit);
  const std::int64_t batch = plan.layout.batch();
  const std::int64_t c0 = plan.first_lane(unit);
  const std::int64_t lanes = plan.lanes_of(unit);

  if (plan.pack_lanes > 0) {
    for (std::int64_t b = 0; b < lanes; b += kLaneBlock) {
      if (b + kLaneBlock < lanes) {
        prefetch_lane_block(pack_scratch + b + kLaneBlock, plan.n, lanes);
        ++counters.prefetched_lane_blocks;
      }
      alignas(64) std::int32_t local_info[kLaneBlock] = {};
      run_lane_block(plan, pack_scratch + b, lanes, local_info, wm_scratch);
      const std::int64_t start = c0 + b;
      if (start < batch) {
        merge_lane_info(local_info, start, batch, info, failed, first_failed);
      }
    }
    ++counters.packed_units;
    return;
  }

  // In-place: chunked layouts are chunk-resident by address map, and lane
  // blocks of one chunk are adjacent, so walking the unit's blocks in order
  // is the chunk-by-chunk traversal.
  const std::int64_t chunk = plan.layout.chunk();
  for (std::int64_t b = 0; b < lanes; b += kLaneBlock) {
    const std::int64_t start = c0 + b;
    T* base = data + plan.layout.chunk_base(start) + (start % chunk);
    if ((start + kLaneBlock) % chunk != 0) {
      // Next lane block lives in the same chunk, one block over.
      prefetch_lane_block(base + kLaneBlock, plan.n, chunk);
      ++counters.prefetched_lane_blocks;
    }
    alignas(64) std::int32_t local_info[kLaneBlock] = {};
    run_lane_block(plan, base, chunk, local_info, wm_scratch);
    if (start < batch) {
      merge_lane_info(local_info, start, batch, info, failed, first_failed);
    }
    ++counters.inplace_lane_blocks;
  }
}

template <typename T>
void writeback_unit(const ChunkExecPlan<T>& plan, const T* scratch, T* data,
                    std::int64_t unit, ChunkUnitCounters& counters) {
  IBCHOL_TRACE_SPAN("writeback", "pipeline", unit);
  const std::int64_t c0 = plan.first_lane(unit);
  const std::int64_t lanes = plan.lanes_of(unit);
  const std::int64_t elems = static_cast<std::int64_t>(plan.n) * plan.n;
  unpack_chunk(scratch, lanes, data + c0, plan.layout.padded_batch(), elems,
               plan.nt_stores);
  if (plan.nt_stores) counters.nt_store_bytes += elems * lanes * sizeof(T);
}

template <typename T, typename S>
void run_unit(const ChunkExecPlan<T>& plan, S* data, std::int64_t unit,
              T* pack_scratch, T* wm_scratch, std::span<std::int32_t> info,
              std::int64_t& failed, std::int64_t& first_failed,
              ChunkUnitCounters& counters) {
  if constexpr (std::is_same_v<S, T>) {
    if (plan.pack_lanes == 0) {
      factor_unit(plan, data, unit, pack_scratch, wm_scratch, info, failed,
                  first_failed, counters);
      return;
    }
  }
  // Packed: the factor stage never dereferences the batch, so a 16-bit
  // batch reuses the compute body verbatim over the widened scratch.
  pack_unit(plan, data, unit, pack_scratch);
  factor_unit<T>(plan, nullptr, unit, pack_scratch, wm_scratch, info, failed,
                 first_failed, counters);
  writeback_unit(plan, pack_scratch, data, unit, counters);
}

template <typename T, typename S>
FactorResult run_chunk_pipeline(const BatchLayout& layout, std::span<S> data,
                                const TileProgram* program,
                                const CpuFactorOptions& options,
                                std::span<std::int32_t> info,
                                StoragePrec storage) {
  IBCHOL_TRACE_SPAN("chunk_pipeline", "cpu", layout.n());
  ChunkExecPlan<T> plan;
  if constexpr (std::is_same_v<S, T>) {
    plan = plan_chunk_exec<T>(layout, data.data(), program, options);
  } else {
    plan = plan_chunk_exec_mixed(layout, program, options, storage);
  }
  note_exec_dispatch(plan.exec);

  std::int64_t failed = 0;
  std::int64_t first_failed = std::numeric_limits<std::int64_t>::max();

#pragma omp parallel num_threads(resolve_threads(options.num_threads))
  {
    AlignedBuffer<T> scratch(plan.pack_scratch_elems);
    std::vector<T> wm_scratch(plan.wm_scratch_elems);
    std::int64_t local_failed = 0;
    std::int64_t local_first = std::numeric_limits<std::int64_t>::max();
    // Counter deltas accumulate in plain thread-locals and fold into the
    // shared registry once per thread — the hot loop never touches an
    // atomic.
    ChunkUnitCounters counters;
#pragma omp for schedule(static)
    for (std::int64_t u = 0; u < plan.num_units; ++u) {
      run_unit(plan, data.data(), u, scratch.data(), wm_scratch.data(), info,
               local_failed, local_first, counters);
    }
    fold_unit_counters(counters);
#pragma omp critical
    {
      failed += local_failed;
      first_failed = std::min(first_failed, local_first);
    }
  }
  return finalize_factor_result(failed, first_failed);
}

// ------------------------------------------- reduced-precision storage ---

ChunkExecPlan<float> plan_chunk_exec_mixed(const BatchLayout& layout,
                                           const TileProgram* program,
                                           const CpuFactorOptions& options,
                                           StoragePrec storage) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "reduced-precision storage runs interleaved layouts");
  IBCHOL_CHECK(storage != StoragePrec::kFp32,
               "mixed plans are for reduced storage precisions only");
  ChunkExecPlan<float> plan = resolve_plan_exec<float>(layout, program,
                                                       options);
  plan.storage = storage;
  plan.convert_isa = resolve_convert_isa();

  const std::int64_t padded = layout.padded_batch();
  const std::int64_t elems = static_cast<std::int64_t>(plan.n) * plan.n;

  // A u16 batch cannot be factored in place — widening IS the pack — so
  // every mixed plan packs, the interpreter oracle and the chunked layout
  // included. One unit is one layout chunk when the address map already
  // has one; otherwise chunk_size keeps its meaning as the pack-scratch
  // lane count (0 = the fp32 sizing rule, so the fp32 scratch footprint
  // stays within the budget).
  std::int64_t c;
  if (layout.kind() == LayoutKind::kInterleavedChunked) {
    c = layout.chunk();
  } else {
    c = options.chunk_size > 0
            ? options.chunk_size
            : chunk_scratch_lanes(plan.n, sizeof(float));
    IBCHOL_CHECK(c % kLaneBlock == 0,
                 "pipeline chunk size must be a multiple of the lane block");
    c = std::min<std::int64_t>(c, padded);
  }
  plan.pack_lanes = static_cast<int>(c);
  plan.unit_lanes = c;
  plan.nt_stores =
      resolve_nt_stores(layout.size_elems() * sizeof(std::uint16_t));
  plan.pack_scratch_elems = static_cast<std::size_t>(elems) * c;
  plan.num_units = (padded + c - 1) / c;
  return plan;
}

namespace {

// The conversion stages only touch the element rows the factorization
// reads and writes: the stored triangle. Column j (elements j·n .. j·n+n,
// column-major) keeps rows [j, n) under kLower and [0, j] under kUpper —
// a contiguous element-row run either way, which halves the conversion
// work against a full-square sweep. The other triangle's stored words are
// left exactly as submitted (the full-square round trip would have
// rewritten them bit-identically: widen is exact and RN-even narrowing of
// an exactly-widened value restores the original word, so skipping it
// changes nothing but the traffic). The matching scratch region stays
// unwritten, which is fine for the same reason the fp32 in-place paths
// are: no compute body dereferences the unfactored triangle.
//
// Per column the run is `rows` element-rows of `lanes` elements at
// `stride`; when the stride equals the unit's lane count (a chunked layout
// walked in whole-chunk units) the rows abut and the whole run is one
// contiguous conversion call.
struct TriangleRun {
  std::int64_t e0 = 0;    ///< first element row of the run
  std::int64_t rows = 0;  ///< element rows in the run
};

inline TriangleRun column_run(int n, int j, Triangle triangle) {
  const std::int64_t lo = triangle == Triangle::kLower ? j : 0;
  const std::int64_t hi = triangle == Triangle::kLower ? n : j + 1;
  return {static_cast<std::int64_t>(j) * n + lo, hi - lo};
}

}  // namespace

void pack_unit(const ChunkExecPlan<float>& plan, const std::uint16_t* data,
               std::int64_t unit, float* scratch) {
  IBCHOL_TRACE_SPAN("pack", "pipeline", unit);
  const std::int64_t c0 = plan.first_lane(unit);
  const std::int64_t lanes = plan.lanes_of(unit);
  const bool chunked = plan.layout.kind() == LayoutKind::kInterleavedChunked;
  const std::uint16_t* src =
      chunked ? data + plan.layout.chunk_base(c0) : data + c0;
  const std::int64_t stride =
      chunked ? plan.layout.chunk() : plan.layout.padded_batch();
  for (int j = 0; j < plan.n; ++j) {
    const TriangleRun run = column_run(plan.n, j, plan.triangle);
    if (stride == lanes) {
      widen_row(plan.convert_isa, plan.storage, src + run.e0 * stride,
                scratch + run.e0 * lanes, run.rows * lanes);
      continue;
    }
    for (std::int64_t e = run.e0; e < run.e0 + run.rows; ++e) {
      widen_row(plan.convert_isa, plan.storage, src + e * stride,
                scratch + e * lanes, lanes);
    }
  }
}

void writeback_unit(const ChunkExecPlan<float>& plan, const float* scratch,
                    std::uint16_t* data, std::int64_t unit,
                    ChunkUnitCounters& counters) {
  IBCHOL_TRACE_SPAN("writeback", "pipeline", unit);
  const std::int64_t c0 = plan.first_lane(unit);
  const std::int64_t lanes = plan.lanes_of(unit);
  const bool chunked = plan.layout.kind() == LayoutKind::kInterleavedChunked;
  std::uint16_t* dst =
      chunked ? data + plan.layout.chunk_base(c0) : data + c0;
  const std::int64_t stride =
      chunked ? plan.layout.chunk() : plan.layout.padded_batch();
  std::int64_t converted = 0;
  for (int j = 0; j < plan.n; ++j) {
    const TriangleRun run = column_run(plan.n, j, plan.triangle);
    converted += run.rows * lanes;
    if (stride == lanes) {
      narrow_row(plan.convert_isa, plan.storage, scratch + run.e0 * lanes,
                 dst + run.e0 * stride, run.rows * lanes, plan.nt_stores);
      continue;
    }
    for (std::int64_t e = run.e0; e < run.e0 + run.rows; ++e) {
      narrow_row(plan.convert_isa, plan.storage, scratch + e * lanes,
                 dst + e * stride, lanes, plan.nt_stores);
    }
  }
  if (plan.nt_stores) {
    narrow_fence();
    counters.nt_store_bytes +=
        converted * static_cast<std::int64_t>(sizeof(std::uint16_t));
  }
}

template <typename T>
void factor_canonical_range(const BatchLayout& layout, T* data, int nb,
                            Triangle triangle, std::int64_t b0,
                            std::int64_t b1, std::span<std::int32_t> info,
                            std::int64_t& failed, std::int64_t& first_failed) {
  const int n = layout.n();
  nb = std::min(nb, n);
  for (std::int64_t b = b0; b < b1; ++b) {
    T* a = data + layout.index(b, 0, 0);
    const int st = triangle == Triangle::kUpper ? potrf_unblocked_upper(n, a, n)
                                                : potrf_blocked(n, nb, a, n);
    if (!info.empty()) info[static_cast<std::size_t>(b)] = st;
    if (st != 0) {
      ++failed;
      first_failed = std::min(first_failed, b);
    }
  }
}

template void pack_chunk<float>(const float*, std::int64_t, float*,
                                std::int64_t, std::int64_t);
template void pack_chunk<double>(const double*, std::int64_t, double*,
                                 std::int64_t, std::int64_t);
template void unpack_chunk<float>(const float*, std::int64_t, float*,
                                  std::int64_t, std::int64_t, bool);
template void unpack_chunk<double>(const double*, std::int64_t, double*,
                                   std::int64_t, std::int64_t, bool);

#define IBCHOL_INSTANTIATE_PLAN(T)                                          \
  template ChunkExecPlan<T> plan_chunk_exec<T>(                             \
      const BatchLayout&, const T*, const TileProgram*,                     \
      const CpuFactorOptions&);                                             \
  template void pack_unit<T>(const ChunkExecPlan<T>&, const T*,             \
                             std::int64_t, T*);                             \
  template void factor_unit<T>(const ChunkExecPlan<T>&, T*, std::int64_t,   \
                               T*, T*, std::span<std::int32_t>,             \
                               std::int64_t&, std::int64_t&,                \
                               ChunkUnitCounters&);                         \
  template void writeback_unit<T>(const ChunkExecPlan<T>&, const T*, T*,    \
                                  std::int64_t, ChunkUnitCounters&);        \
  template void run_unit<T, T>(const ChunkExecPlan<T>&, T*, std::int64_t,  \
                               T*, T*, std::span<std::int32_t>,             \
                               std::int64_t&, std::int64_t&,                \
                               ChunkUnitCounters&);                         \
  template FactorResult run_chunk_pipeline<T, T>(                           \
      const BatchLayout&, std::span<T>, const TileProgram*,                 \
      const CpuFactorOptions&, std::span<std::int32_t>, StoragePrec);       \
  template void factor_canonical_range<T>(                                  \
      const BatchLayout&, T*, int, Triangle, std::int64_t, std::int64_t,    \
      std::span<std::int32_t>, std::int64_t&, std::int64_t&);

IBCHOL_INSTANTIATE_PLAN(float)
IBCHOL_INSTANTIATE_PLAN(double)
#undef IBCHOL_INSTANTIATE_PLAN

template void run_unit<float, std::uint16_t>(
    const ChunkExecPlan<float>&, std::uint16_t*, std::int64_t, float*, float*,
    std::span<std::int32_t>, std::int64_t&, std::int64_t&, ChunkUnitCounters&);
template FactorResult run_chunk_pipeline<float, std::uint16_t>(
    const BatchLayout&, std::span<std::uint16_t>, const TileProgram*,
    const CpuFactorOptions&, std::span<std::int32_t>, StoragePrec);

}  // namespace ibchol
