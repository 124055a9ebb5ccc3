#include "kernels/variant.hpp"

#include <sstream>

#include "layout/layout.hpp"
#include "util/error.hpp"

namespace ibchol {

void TuningParams::validate(int n) const {
  IBCHOL_CHECK(n >= 1, "matrix dimension must be positive");
  IBCHOL_CHECK(nb >= 1, "tile size must be positive");
  IBCHOL_CHECK(!chunked || (chunk_size > 0 && chunk_size % kWarpSize == 0),
               "chunk size must be a positive multiple of the warp size");
  // Non-chunked layouts still honor chunk_size as the CPU pipeline's
  // pack-scratch size (0 = automatic sizing rule).
  IBCHOL_CHECK(chunked || chunk_size == 0 || chunk_size % kWarpSize == 0,
               "pack-scratch chunk size must be 0 (auto) or a multiple of "
               "the warp size");
  IBCHOL_CHECK(lookahead >= 1, "tiled lookahead must be at least 1");
}

std::string TuningParams::to_string() const {
  std::ostringstream os;
  os << "TuningParams(nb=" << nb << ", looking=" << ibchol::to_string(looking)
     << ", " << (chunked ? "chunked(" + std::to_string(chunk_size) + ")"
                         : "non-chunked")
     << ", unroll=" << ibchol::to_string(unroll)
     << ", math=" << ibchol::to_string(math)
     << ", cache=" << (prefer_shared ? "shared" : "L1")
     << ", exec=" << ibchol::to_string(exec);
  if (exec == CpuExec::kVectorized) os << ", isa=" << ibchol::to_string(isa);
  if (storage != StoragePrec::kFp32) {
    os << ", storage=" << ibchol::to_string(storage);
  }
  if (lookahead != 2) os << ", lookahead=" << lookahead;
  os << ")";
  return os.str();
}

std::string TuningParams::key() const {
  std::ostringstream os;
  os << "nb" << nb << '_' << ibchol::to_string(looking) << '_'
     // A non-chunked point with a nonzero chunk_size is a distinct CPU
     // tuning point (pack-scratch size); plain "nc" keeps historical keys.
     << (chunked ? "c" + std::to_string(chunk_size)
                 : chunk_size > 0 ? "nc" + std::to_string(chunk_size) : "nc")
     << '_'
     << ibchol::to_string(unroll) << '_' << ibchol::to_string(math) << '_'
     << (prefer_shared ? "sh" : "l1");
  // The executor mode (and, for the vectorized executor, its ISA tier) is
  // appended only when it deviates from the default so existing
  // datasets/caches keyed on the historical spelling stay valid.
  if (exec == CpuExec::kAuto) os << "_auto";
  if (exec == CpuExec::kVectorized) {
    os << "_vec";
    if (isa != SimdIsa::kAuto) os << '_' << ibchol::to_string(isa);
  }
  // Storage precision, the seventh axis, follows the same deviation-only
  // rule: fp32 points keep their historical keys.
  if (storage != StoragePrec::kFp32) os << '_' << ibchol::to_string(storage);
  // Tiled lookahead, the eighth axis: deviation-only again, so every
  // small-n point (which never reads it) keeps its historical key.
  if (lookahead != 2) os << "_la" << lookahead;
  return os.str();
}

const std::vector<int>& standard_chunk_sizes() {
  static const std::vector<int> sizes{32, 64, 128, 256, 512};
  return sizes;
}

const std::vector<int>& standard_tile_sizes() {
  static const std::vector<int> sizes{1, 2, 3, 4, 5, 6, 7, 8};
  return sizes;
}

}  // namespace ibchol
