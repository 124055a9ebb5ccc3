// Tests for the chunk-resident execution pipeline (cpu/chunk_pipeline.*).
//
// The load-bearing properties:
//  * pack_chunk/unpack_chunk are exact inverses and never touch bytes
//    outside the addressed rows — the packed pipeline must be a pure
//    performance transform, invisible in the output bits;
//  * the packed path (simple interleaved layout staged through scratch)
//    produces the same factor bits as in-place execution over an already
//    chunked layout, including the non-temporal write-back variant;
//  * CpuExec::kAuto resolves through the measured dispatch table and its
//    result is bit-identical to requesting the resolved executor directly;
//  * the first_failed sentinel (int64 max, the min-reduction identity) can
//    never leak to callers — every driver funnels through
//    finalize_factor_result.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/chunk_pipeline.hpp"
#include "cpu/simd/isa.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol {
namespace {

// Scoped environment override that restores the prior value on exit, so
// tests forcing IBCHOL_SIMD_ISA / IBCHOL_CHUNK_NT cannot leak into later
// tests in the same process.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// ----------------------------------------------------- scratch sizing ----

TEST(ChunkScratchLanes, FollowsSizingRule) {
  // n=64 float: one lane block is 64*64*32*4 B = 512 KiB, so two fit the
  // 1 MiB budget.
  EXPECT_EQ(chunk_scratch_lanes(64, sizeof(float)), 2 * kLaneBlock);
  // n=64 double: exactly one lane block fills the budget.
  EXPECT_EQ(chunk_scratch_lanes(64, sizeof(double)), kLaneBlock);
  // Small n would fit thousands of lanes; clamped to the top of the
  // paper's chunk-size sweep.
  EXPECT_EQ(chunk_scratch_lanes(16, sizeof(float)), 512);
  // Oversized matrices still get one lane block (the floor), never zero.
  EXPECT_EQ(chunk_scratch_lanes(128, sizeof(float)), kLaneBlock);
}

TEST(ChunkScratchLanes, AlwaysLaneBlockMultipleInRange) {
  for (int n = 1; n <= 96; ++n) {
    for (const std::size_t elem : {sizeof(float), sizeof(double)}) {
      const int lanes = chunk_scratch_lanes(n, elem);
      EXPECT_EQ(lanes % kLaneBlock, 0) << "n=" << n;
      EXPECT_GE(lanes, kLaneBlock) << "n=" << n;
      EXPECT_LE(lanes, 512) << "n=" << n;
    }
  }
}

// ------------------------------------------------------ pack / unpack ----

template <typename T>
void run_pack_round_trip(bool nt_stores) {
  const int n = 5;
  const std::int64_t elems = n * n;
  const std::int64_t stride = 128;  // padded batch of the fake layout
  const std::int64_t lanes = 64;
  const std::int64_t offset = 32;  // chunk starts one lane block in

  AlignedBuffer<T> src(static_cast<std::size_t>(elems) * stride);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<T>(i % 1009) * T(0.5) - T(200);
  }
  AlignedBuffer<T> scratch(static_cast<std::size_t>(elems) * lanes);
  pack_chunk<T>(src.data() + offset, stride, scratch.data(), lanes, elems);
  for (std::int64_t e = 0; e < elems; ++e) {
    for (std::int64_t l = 0; l < lanes; ++l) {
      ASSERT_EQ(scratch[e * lanes + l], src[e * stride + offset + l])
          << "elem-row " << e << " lane " << l;
    }
  }

  // Unpack into a sentinel-filled buffer: addressed rows come back
  // bit-identical, everything else stays untouched.
  AlignedBuffer<T> dst(src.size());
  std::memset(dst.data(), 0x7f, dst.size() * sizeof(T));
  const AlignedBuffer<T> sentinel_copy = [&] {
    AlignedBuffer<T> c(dst.size());
    std::memcpy(c.data(), dst.data(), dst.size() * sizeof(T));
    return c;
  }();
  unpack_chunk<T>(scratch.data(), lanes, dst.data() + offset, stride, elems,
                  nt_stores);
  for (std::int64_t e = 0; e < elems; ++e) {
    for (std::int64_t i = 0; i < stride; ++i) {
      const std::size_t idx = static_cast<std::size_t>(e * stride + i);
      if (i >= offset && i < offset + lanes) {
        ASSERT_EQ(std::memcmp(&dst[idx], &src[idx], sizeof(T)), 0)
            << "row " << e << " col " << i;
      } else {
        ASSERT_EQ(std::memcmp(&dst[idx], &sentinel_copy[idx], sizeof(T)), 0)
            << "clobbered bystander at row " << e << " col " << i;
      }
    }
  }
}

TEST(PackUnpack, RoundTripFloat) { run_pack_round_trip<float>(false); }
TEST(PackUnpack, RoundTripDouble) { run_pack_round_trip<double>(false); }
TEST(PackUnpack, RoundTripFloatNtStores) { run_pack_round_trip<float>(true); }
TEST(PackUnpack, RoundTripDoubleNtStores) {
  run_pack_round_trip<double>(true);
}

// --------------------------------------------------- factor equivalence --

template <typename T>
AlignedBuffer<T> factor_copy(const BatchLayout& layout,
                             const AlignedBuffer<T>& orig,
                             const CpuFactorOptions& options,
                             std::vector<std::int32_t>& info,
                             FactorResult* result = nullptr) {
  AlignedBuffer<T> data(layout.size_elems());
  std::copy(orig.begin(), orig.end(), data.begin());
  info.assign(static_cast<std::size_t>(layout.batch()), 0);
  const FactorResult res = factor_batch_cpu<T>(layout, data.span(), options,
                                               std::span<std::int32_t>(info));
  if (result != nullptr) *result = res;
  return data;
}

// The packed pipeline over the simple interleaved layout must produce, for
// every matrix of the batch, exactly the bits that in-place execution over
// an already chunked layout produces — the pack/compute/unpack staging is
// invisible. Matrices are compared through extract_matrix because the two
// layouts address memory differently.
template <typename T>
void run_packed_vs_in_place(int n, CpuExec exec, Unroll unroll) {
  const std::int64_t batch = 200;  // padded 224: three 64-lane chunks + tail
  const BatchLayout simple = BatchLayout::interleaved(n, batch);
  const BatchLayout chunked = BatchLayout::interleaved_chunked(n, batch, 64);

  AlignedBuffer<T> simple_data(simple.size_elems());
  generate_spd_batch<T>(simple, simple_data.span(),
                        {SpdKind::kGramPlusDiagonal, 977, 50.0});
  AlignedBuffer<T> chunked_data(chunked.size_elems());
  convert_layout<T>(simple, std::span<const T>(simple_data.span()), chunked,
                    chunked_data.span());
  // One failing matrix, to check info and FactorResult travel through the
  // packed path's merge identically.
  poison_matrix<T>(simple, simple_data.span(), 101, 2);
  poison_matrix<T>(chunked, chunked_data.span(), 101, 2);

  CpuFactorOptions opt;
  opt.nb = std::min(8, n);
  opt.unroll = unroll;
  opt.exec = exec;
  opt.chunk_size = 64;  // < padded batch, so the simple layout packs

  std::vector<std::int32_t> packed_info, inplace_info;
  FactorResult packed_res, inplace_res;
  const AlignedBuffer<T> packed =
      factor_copy<T>(simple, simple_data, opt, packed_info, &packed_res);
  const AlignedBuffer<T> inplace =
      factor_copy<T>(chunked, chunked_data, opt, inplace_info, &inplace_res);

  EXPECT_EQ(packed_info, inplace_info);
  EXPECT_EQ(packed_res.failed_count, 1);
  EXPECT_EQ(packed_res.first_failed, 101);
  EXPECT_EQ(inplace_res.failed_count, 1);
  EXPECT_EQ(inplace_res.first_failed, 101);

  std::vector<T> a(static_cast<std::size_t>(n) * n);
  std::vector<T> b(a.size());
  for (std::int64_t m = 0; m < batch; ++m) {
    if (m == 101) continue;  // failed matrix holds NaNs past the pivot
    extract_matrix<T>(simple, std::span<const T>(packed.span()), m, a);
    extract_matrix<T>(chunked, std::span<const T>(inplace.span()), m, b);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << "matrix " << m << " n=" << n;
  }
}

TEST(ChunkPipeline, PackedMatchesInPlaceVectorizedFloat) {
  run_packed_vs_in_place<float>(32, CpuExec::kVectorized, Unroll::kFull);
}

TEST(ChunkPipeline, PackedMatchesInPlaceVectorizedDouble) {
  run_packed_vs_in_place<double>(48, CpuExec::kVectorized, Unroll::kFull);
}

TEST(ChunkPipeline, PackedMatchesInPlaceInterpreterPartial) {
  run_packed_vs_in_place<float>(24, CpuExec::kInterpreter, Unroll::kPartial);
}

TEST(ChunkPipeline, PackedMatchesInPlaceSmallFused) {
  // n below the fused cutoff exercises the vectorized fused kernel, and the
  // interpreter's whole-matrix body, through the packed staging.
  run_packed_vs_in_place<float>(8, CpuExec::kVectorized, Unroll::kFull);
  run_packed_vs_in_place<float>(6, CpuExec::kInterpreter, Unroll::kFull);
}

TEST(ChunkPipeline, NtStorePathBitIdentical) {
  // Forcing the non-temporal write-back (IBCHOL_CHUNK_NT=1) must change
  // only the store instructions, never the stored bits; this is also the
  // case the sanitizer run leans on to check the streaming rows stay in
  // bounds.
  const int n = 16;
  const std::int64_t batch = 500;
  const BatchLayout layout = BatchLayout::interleaved(n, batch);
  AlignedBuffer<float> orig(layout.size_elems());
  generate_spd_batch<float>(layout, orig.span());

  CpuFactorOptions opt;
  opt.unroll = Unroll::kFull;
  opt.exec = CpuExec::kVectorized;
  opt.chunk_size = 64;

  std::vector<std::int32_t> nt_info, plain_info;
  AlignedBuffer<float> nt, plain;
  {
    ScopedEnv env("IBCHOL_CHUNK_NT", "1");
    nt = factor_copy<float>(layout, orig, opt, nt_info);
  }
  {
    ScopedEnv env("IBCHOL_CHUNK_NT", "0");
    plain = factor_copy<float>(layout, orig, opt, plain_info);
  }
  EXPECT_EQ(nt_info, plain_info);
  EXPECT_EQ(std::memcmp(nt.data(), plain.data(),
                        layout.size_elems() * sizeof(float)),
            0);
}

TEST(ChunkPipeline, AutoScratchSizingMatchesExplicitChunk) {
  // chunk_size = 0 defers to the footprint rule (in place at this batch
  // size); an explicit chunk size forces the packed staging. Either way
  // the factor bits must be identical — packing is invisible.
  const int n = 24;
  const std::int64_t batch = 1500;
  const BatchLayout layout = BatchLayout::interleaved(n, batch);
  AlignedBuffer<double> orig(layout.size_elems());
  generate_spd_batch<double>(layout, orig.span());

  CpuFactorOptions opt;
  opt.unroll = Unroll::kFull;
  opt.exec = CpuExec::kVectorized;
  opt.chunk_size = 0;
  std::vector<std::int32_t> auto_info, explicit_info;
  const AlignedBuffer<double> auto_sized =
      factor_copy<double>(layout, orig, opt, auto_info);
  opt.chunk_size = chunk_scratch_lanes(n, sizeof(double));
  const AlignedBuffer<double> explicit_sized =
      factor_copy<double>(layout, orig, opt, explicit_info);
  EXPECT_EQ(auto_info, explicit_info);
  EXPECT_EQ(std::memcmp(auto_sized.data(), explicit_sized.data(),
                        layout.size_elems() * sizeof(double)),
            0);
}

// ------------------------------------------------------ kAuto dispatch ---

TEST(ResolveCpuExec, ScalarTierPrefersInterpreter) {
  ScopedEnv env("IBCHOL_SIMD_ISA", "scalar");
  for (const int n : {4, 8, 16, 24, 32, 64, 65, 128}) {
    EXPECT_EQ(resolve_cpu_exec(n, SimdIsa::kAuto), CpuExec::kInterpreter)
        << "n=" << n;
  }
}

TEST(ResolveCpuExec, AvxTiersVectorizeUpToWholeMatrixDim) {
  ScopedEnv env("IBCHOL_SIMD_ISA", nullptr);
  if (detect_simd_isa() == SimdIsa::kScalar) {
    GTEST_SKIP() << "host has no AVX tier";
  }
  for (const int n : {4, 8, 16, 24, 32, 48, kMaxVecWholeDim}) {
    EXPECT_EQ(resolve_cpu_exec(n, SimdIsa::kAuto), CpuExec::kVectorized)
        << "n=" << n;
  }
  for (const int n : {kMaxVecWholeDim + 1, 96, 128}) {
    EXPECT_EQ(resolve_cpu_exec(n, SimdIsa::kAuto), CpuExec::kInterpreter)
        << "n=" << n;
  }
}

TEST(ResolveCpuExec, NeverReturnsAuto) {
  for (const SimdIsa isa :
       {SimdIsa::kAuto, SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    for (int n = 1; n <= 80; ++n) {
      EXPECT_NE(resolve_cpu_exec(n, isa), CpuExec::kAuto);
    }
  }
}

TEST(AutoDispatch, MatchesResolvedExecutorBitwise) {
  // Factoring with kAuto must give exactly the bits of the executor the
  // dispatch table names — kAuto is a table lookup, not a fourth code path.
  for (const int n : {8, 24, 48}) {
    const std::int64_t batch = 3 * kLaneBlock;
    const BatchLayout layout = BatchLayout::interleaved_chunked(n, batch, 64);
    AlignedBuffer<float> orig(layout.size_elems());
    generate_spd_batch<float>(layout, orig.span());

    CpuFactorOptions opt;
    opt.nb = std::min(8, n);
    opt.unroll = Unroll::kPartial;  // kAuto→vectorized implies full unroll
    opt.exec = CpuExec::kAuto;
    std::vector<std::int32_t> auto_info, direct_info;
    const AlignedBuffer<float> via_auto =
        factor_copy<float>(layout, orig, opt, auto_info);

    const CpuExec resolved = resolve_cpu_exec(n, SimdIsa::kAuto);
    opt.exec = resolved;
    if (resolved == CpuExec::kVectorized) opt.unroll = Unroll::kFull;
    const AlignedBuffer<float> direct =
        factor_copy<float>(layout, orig, opt, direct_info);

    EXPECT_EQ(auto_info, direct_info) << "n=" << n;
    EXPECT_EQ(std::memcmp(via_auto.data(), direct.data(),
                          layout.size_elems() * sizeof(float)),
              0)
        << "n=" << n << " resolved=" << to_string(resolved);
  }
}

TEST(AutoDispatch, StringRoundTrip) {
  EXPECT_EQ(to_string(CpuExec::kAuto), "auto");
  EXPECT_EQ(cpu_exec_from_string("auto"), CpuExec::kAuto);
}

// -------------------------------------------------- first_failed paths ---

TEST(FinalizeFactorResult, MapsSentinelToMinusOne) {
  constexpr std::int64_t kSentinel =
      std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(finalize_factor_result(0, kSentinel).first_failed, -1);
  EXPECT_TRUE(finalize_factor_result(0, kSentinel).ok());
  // Even a (buggy) caller that counted failures without recording an index
  // gets the public convention, never the reduction identity.
  EXPECT_EQ(finalize_factor_result(2, kSentinel).first_failed, -1);
  const FactorResult res = finalize_factor_result(3, 7);
  EXPECT_EQ(res.failed_count, 3);
  EXPECT_EQ(res.first_failed, 7);
}

template <typename T>
void expect_clean_result(const BatchLayout& layout) {
  AlignedBuffer<T> data(layout.size_elems());
  generate_spd_batch<T>(layout, data.span());
  CpuFactorOptions opt;
  const FactorResult res = factor_batch_cpu<T>(layout, data.span(), opt);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.failed_count, 0);
  // The regression this guards: the canonical driver used to return the
  // int64-max reduction sentinel as first_failed on all-success batches.
  EXPECT_EQ(res.first_failed, -1);
}

TEST(SentinelConvention, CleanBatchesReportMinusOne) {
  expect_clean_result<float>(BatchLayout::canonical(12, 50));
  expect_clean_result<float>(BatchLayout::interleaved(12, 50));
  expect_clean_result<double>(BatchLayout::interleaved_chunked(12, 50, 32));
}

TEST(SentinelConvention, AllFailedReportsFirstIndex) {
  for (const BatchLayout& layout :
       {BatchLayout::canonical(8, 40), BatchLayout::interleaved(8, 40)}) {
    AlignedBuffer<float> data(layout.size_elems());
    generate_spd_batch<float>(layout, data.span());
    for (std::int64_t b = 0; b < layout.batch(); ++b) {
      poison_matrix<float>(layout, data.span(), b, 0);
    }
    std::vector<std::int32_t> info(layout.batch(), 0);
    CpuFactorOptions opt;
    const FactorResult res = factor_batch_cpu<float>(
        layout, data.span(), opt, std::span<std::int32_t>(info));
    EXPECT_EQ(res.failed_count, layout.batch());
    EXPECT_EQ(res.first_failed, 0);
    for (const std::int32_t i : info) EXPECT_EQ(i, 1);
  }
}

}  // namespace
}  // namespace ibchol
