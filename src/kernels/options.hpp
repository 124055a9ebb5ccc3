// Enumerations for the paper's categorical tuning parameters.
#pragma once

#include <cstdint>
#include <string>

namespace ibchol {

/// Order of evaluation of the tile operations (paper §II.A / parameter 2).
/// Right-looking is aggressive evaluation, left-looking is lazy, and
/// top-looking is the "laziest" — it minimizes writes to memory.
enum class Looking : std::uint8_t { kRight, kLeft, kTop };

/// Whether the outer (tile-level) loops are unrolled in addition to the
/// always-unrolled tile microkernels (paper parameter 5).
enum class Unroll : std::uint8_t { kPartial, kFull };

/// IEEE-compliant arithmetic vs the CUDA --use_fast_math mode, which
/// relaxes square root and division and flushes denormals (paper §III).
enum class MathMode : std::uint8_t { kIeee, kFastMath };

/// Which triangle of the symmetric input is referenced and which factor is
/// produced: kLower gives A = L·Lᵀ (the paper's choice), kUpper gives
/// A = Uᵀ·U ("upper triangular matrices can be supported in the same
/// manner", paper §II.C) — implemented by running the lower schedule over
/// the transposed index map.
enum class Triangle : std::uint8_t { kLower, kUpper };

/// How the CPU substrate executes a tile program. The interpreter walks the
/// op list with runtime trip counts (a switch per op) in lane loops the
/// compiler autovectorizes; it is the correctness oracle, and kAuto's
/// choice where the vectorized executor does not win. The vectorized
/// executor runs explicit SIMD intrinsic lane-block bodies selected by
/// runtime ISA dispatch (see cpu/simd/) and is the production path. Both
/// produce identical schedules. kAuto consults the measured per-(n, isa)
/// dispatch table (cpu/chunk_pipeline.hpp) and resolves to the executor
/// that wins at that size on the detected SIMD tier.
enum class CpuExec : std::uint8_t { kInterpreter, kVectorized, kAuto };

/// Instruction-set tier of the vectorized executor. kAuto resolves to the
/// widest tier the executing CPU supports at runtime (cpuid dispatch); the
/// explicit tiers force a narrower body — the scalar tier is compiled
/// unconditionally, so the same binary runs on hosts without AVX. Requests
/// above the detected tier are clamped, never faulted.
enum class SimdIsa : std::uint8_t { kAuto, kScalar, kAvx2, kAvx512 };

/// Element width of the matrices as *stored* in the interleaved layout.
/// kFp32 is the classic path (storage == compute). kBf16/kFp16 hold the
/// batch as 16-bit words and widen to fp32 on the way into the chunk
/// pipeline's pack scratch, so every tile-op accumulates in full fp32
/// registers and only the memory traffic halves. Reduced storage rounds
/// the input once on ingest and the factor once on write-back; iterative
/// refinement (cpu/refine.*) recovers solve accuracy against an
/// fp32-held right-hand side.
enum class StoragePrec : std::uint8_t { kFp32, kBf16, kFp16 };

[[nodiscard]] std::string to_string(Looking looking);
[[nodiscard]] std::string to_string(Unroll unroll);
[[nodiscard]] std::string to_string(MathMode math);
[[nodiscard]] std::string to_string(Triangle triangle);
[[nodiscard]] std::string to_string(CpuExec exec);
[[nodiscard]] std::string to_string(SimdIsa isa);
[[nodiscard]] std::string to_string(StoragePrec prec);

/// Parse helpers (accept the to_string spellings); throw ibchol::Error on
/// unknown values.
[[nodiscard]] Looking looking_from_string(const std::string& s);
[[nodiscard]] Unroll unroll_from_string(const std::string& s);
[[nodiscard]] MathMode math_from_string(const std::string& s);
[[nodiscard]] CpuExec cpu_exec_from_string(const std::string& s);
[[nodiscard]] SimdIsa simd_isa_from_string(const std::string& s);
[[nodiscard]] StoragePrec storage_prec_from_string(const std::string& s);

}  // namespace ibchol
