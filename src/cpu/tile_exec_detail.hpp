// Shared internals of the tile-program executors (interpreter and
// vectorized). Not part of the public API.
#pragma once

#include <cstdint>

#include "cpu/tile_exec.hpp"

namespace ibchol::exec_detail {

// Register-tile file for one lane block. Element (i,j) of register r lives
// at a fixed stride-kMaxTileSize slot so addressing is independent of the
// actual tile dims (edge tiles simply use fewer slots).
template <typename T>
struct RegFile {
  alignas(64) T regs[kMaxRegisterTiles][kMaxTileSize * kMaxTileSize]
                    [kLaneBlock];

  T* tile(int r, int i, int j) {
    return regs[r][i * kMaxTileSize + j];
  }
};

}  // namespace ibchol::exec_detail
