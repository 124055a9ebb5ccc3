#include "autotune/space.hpp"

#include "tiled/dag.hpp"

namespace ibchol {

std::vector<TuningParams> enumerate_space(int n, const SpaceOptions& options) {
  std::vector<TuningParams> space;
  std::vector<MathMode> maths{MathMode::kIeee};
  if (options.include_fast_math) maths.push_back(MathMode::kFastMath);
  std::vector<bool> caches{false};
  if (options.include_cache_pref) caches.push_back(true);
  // Executor axis: expand kVectorized into one point per requested ISA
  // tier; the other executors ignore the tier and get exactly one point.
  std::vector<std::pair<CpuExec, SimdIsa>> execs;
  if (options.execs.empty()) {
    execs.emplace_back(CpuExec::kInterpreter, SimdIsa::kAuto);
  } else {
    for (const CpuExec e : options.execs) {
      if (e == CpuExec::kVectorized) {
        for (const SimdIsa isa : options.isas) execs.emplace_back(e, isa);
        if (options.isas.empty()) execs.emplace_back(e, SimdIsa::kAuto);
      } else {
        execs.emplace_back(e, SimdIsa::kAuto);
      }
    }
  }
  const std::vector<StoragePrec> storages =
      options.storage_precs.empty()
          ? std::vector<StoragePrec>{StoragePrec::kFp32}
          : options.storage_precs;

  for (const int nb : options.tile_sizes) {
    if (nb > n) continue;
    for (const Looking looking :
         {Looking::kRight, Looking::kLeft, Looking::kTop}) {
      for (const Unroll unroll : {Unroll::kPartial, Unroll::kFull}) {
        for (const MathMode math : maths) {
          for (const bool prefer_shared : caches) {
            for (const auto& [exec, isa] : execs) {
              for (const StoragePrec storage : storages) {
                auto add = [&](bool chunked, int chunk_size) {
                  TuningParams p;
                  p.nb = nb;
                  p.looking = looking;
                  p.unroll = unroll;
                  p.math = math;
                  p.prefer_shared = prefer_shared;
                  p.chunked = chunked;
                  p.chunk_size = chunk_size;
                  p.exec = exec;
                  p.isa = isa;
                  p.storage = storage;
                  space.push_back(p);
                };
                if (options.include_non_chunked) {
                  if (options.pack_chunk_sizes.empty()) {
                    add(false, 0);
                  } else {
                    // chunk_size stays live for the non-chunked layout as
                    // the pipeline's pack-scratch lane count.
                    for (const int c : options.pack_chunk_sizes) add(false, c);
                  }
                }
                for (const int c : options.chunk_sizes) add(true, c);
              }
            }
          }
        }
      }
    }
  }
  // Tiled large-N lane: appended after the classic grid so that, with the
  // lane off (the default), the enumeration is byte-identical to the
  // historical one. Each point pins the small-n axes at their defaults
  // (the tiled executor does not read them) and varies only the DAG axes:
  // tile size (cache-fit ladder) × lookahead.
  if (options.include_tiled && n > 64) {
    const std::vector<int> lookaheads = options.tiled_lookaheads.empty()
                                            ? std::vector<int>{2}
                                            : options.tiled_lookaheads;
    for (const int nb : tiled::tiled_nb_candidates(n, sizeof(float))) {
      for (const int la : lookaheads) {
        TuningParams p;
        p.exec = CpuExec::kAuto;  // routes to tiled past n = 64
        p.chunked = false;
        p.chunk_size = 0;
        p.nb = nb;
        p.lookahead = la;
        space.push_back(p);
      }
    }
  }
  return space;
}

std::vector<int> standard_sizes() {
  std::vector<int> sizes;
  for (int n = 2; n <= 64; n += 2) sizes.push_back(n);
  return sizes;
}

std::vector<int> quick_sizes() { return {4, 8, 16, 24, 32, 48, 64}; }

std::vector<int> tiled_sizes() { return {96, 128, 256, 512, 1024}; }

}  // namespace ibchol
