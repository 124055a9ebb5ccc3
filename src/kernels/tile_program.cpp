#include "kernels/tile_program.hpp"

#include <algorithm>
#include <sstream>

namespace ibchol {

std::string to_string(Looking looking) {
  switch (looking) {
    case Looking::kRight: return "right";
    case Looking::kLeft: return "left";
    case Looking::kTop: return "top";
  }
  return "?";
}

std::string to_string(Unroll unroll) {
  return unroll == Unroll::kFull ? "full" : "partial";
}

std::string to_string(MathMode math) {
  return math == MathMode::kFastMath ? "fast" : "ieee";
}

std::string to_string(Triangle triangle) {
  return triangle == Triangle::kUpper ? "upper" : "lower";
}

std::string to_string(CpuExec exec) {
  switch (exec) {
    case CpuExec::kInterpreter: return "interp";
    case CpuExec::kVectorized: return "vectorized";
    case CpuExec::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto: return "auto";
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "?";
}

Looking looking_from_string(const std::string& s) {
  if (s == "right") return Looking::kRight;
  if (s == "left") return Looking::kLeft;
  if (s == "top") return Looking::kTop;
  throw Error("unknown looking order: " + s);
}

Unroll unroll_from_string(const std::string& s) {
  if (s == "full") return Unroll::kFull;
  if (s == "partial") return Unroll::kPartial;
  throw Error("unknown unroll mode: " + s);
}

MathMode math_from_string(const std::string& s) {
  if (s == "ieee") return MathMode::kIeee;
  if (s == "fast") return MathMode::kFastMath;
  throw Error("unknown math mode: " + s);
}

CpuExec cpu_exec_from_string(const std::string& s) {
  // "spec" named a compile-time specialized executor whose factors were
  // byte-identical to the interpreter's; records that name it still load.
  if (s == "interp" || s == "spec") return CpuExec::kInterpreter;
  if (s == "vectorized") return CpuExec::kVectorized;
  if (s == "auto") return CpuExec::kAuto;
  throw Error("unknown cpu exec mode: " + s);
}

SimdIsa simd_isa_from_string(const std::string& s) {
  if (s == "auto") return SimdIsa::kAuto;
  if (s == "scalar") return SimdIsa::kScalar;
  if (s == "avx2") return SimdIsa::kAvx2;
  if (s == "avx512") return SimdIsa::kAvx512;
  throw Error("unknown simd isa tier: " + s);
}

std::string to_string(StoragePrec prec) {
  switch (prec) {
    case StoragePrec::kFp32: return "fp32";
    case StoragePrec::kBf16: return "bf16";
    case StoragePrec::kFp16: return "fp16";
  }
  return "?";
}

StoragePrec storage_prec_from_string(const std::string& s) {
  if (s == "fp32") return StoragePrec::kFp32;
  if (s == "bf16") return StoragePrec::kBf16;
  if (s == "fp16") return StoragePrec::kFp16;
  throw Error("unknown storage precision: " + s);
}

std::string to_string(TileOp::Kind kind) {
  switch (kind) {
    case TileOp::Kind::kLoadFull: return "load_full";
    case TileOp::Kind::kLoadLower: return "load_lower";
    case TileOp::Kind::kStoreFull: return "store_full";
    case TileOp::Kind::kStoreLower: return "store_lower";
    case TileOp::Kind::kPotrf: return "potrf_tile";
    case TileOp::Kind::kTrsm: return "trsm_tile";
    case TileOp::Kind::kSyrk: return "syrk_tile";
    case TileOp::Kind::kGemm: return "gemm_tile";
  }
  return "?";
}

std::string to_string(const TileOp& op) {
  std::ostringstream os;
  os << to_string(op.kind) << "(r" << int(op.r1);
  switch (op.kind) {
    case TileOp::Kind::kTrsm:
    case TileOp::Kind::kSyrk:
      os << ", r" << int(op.r2);
      break;
    case TileOp::Kind::kGemm:
      os << ", r" << int(op.r2) << ", r" << int(op.r3);
      break;
    default:
      break;
  }
  os << "; at(" << op.row0 << ',' << op.col0 << "), " << op.rows << 'x'
     << op.cols;
  if (op.kdim != 0) os << ", k=" << op.kdim;
  os << ')';
  return os.str();
}

int TileProgram::num_register_tiles() const {
  int max_reg = -1;
  for (const auto& op : ops) {
    max_reg = std::max({max_reg, int(op.r1), int(op.r2), int(op.r3)});
  }
  return max_reg + 1;
}

std::string TileProgram::to_string() const {
  std::ostringstream os;
  os << "tile_program(n=" << n << ", nb=" << nb << ", "
     << ibchol::to_string(looking) << ", " << ops.size() << " ops)";
  return os.str();
}

namespace {

// The paper's generated kernels use three register tiles rA1, rA2, rA3.
constexpr std::int8_t kRA1 = 0;
constexpr std::int8_t kRA2 = 1;
constexpr std::int8_t kRA3 = 2;

/// Emits tile programs for one (n, nb) pair. Tile t spans element rows
/// [t*nb, t*nb + dim(t)), dim(t) = min(nb, n - t*nb).
class Builder {
 public:
  Builder(int n, int nb) : n_(n), nb_(nb), grid_((n + nb - 1) / nb) {}

  [[nodiscard]] int grid() const { return grid_; }

  [[nodiscard]] std::int16_t dim(int t) const {
    return static_cast<std::int16_t>(std::min(nb_, n_ - t * nb_));
  }

  [[nodiscard]] std::int16_t at(int t) const {
    return static_cast<std::int16_t>(t * nb_);
  }

  void load_full(int tm, int tn, std::int8_t reg) {
    ops_.push_back({TileOp::Kind::kLoadFull, reg, 0, 0, at(tm), at(tn),
                    dim(tm), dim(tn), 0});
  }

  void load_lower(int t, std::int8_t reg) {
    ops_.push_back({TileOp::Kind::kLoadLower, reg, 0, 0, at(t), at(t), dim(t),
                    dim(t), 0});
  }

  void store_full(int tm, int tn, std::int8_t reg) {
    ops_.push_back({TileOp::Kind::kStoreFull, reg, 0, 0, at(tm), at(tn),
                    dim(tm), dim(tn), 0});
  }

  void store_lower(int t, std::int8_t reg) {
    ops_.push_back({TileOp::Kind::kStoreLower, reg, 0, 0, at(t), at(t), dim(t),
                    dim(t), 0});
  }

  void potrf(int t, std::int8_t reg) {
    // row0/col0 carry the tile's global diagonal position so executors can
    // report the failing column of a non-SPD matrix.
    ops_.push_back({TileOp::Kind::kPotrf, reg, 0, 0, at(t), at(t), dim(t),
                    dim(t), 0});
  }

  // dst (tm × tn tile) <- dst · tril(diag tile tn)^{-T}
  void trsm(int tm, int tn, std::int8_t tri, std::int8_t dst) {
    ops_.push_back({TileOp::Kind::kTrsm, tri, dst, 0, 0, 0, dim(tm), dim(tn),
                    0});
  }

  // dst (diag tile t, lower) -= a·aᵀ where a is dim(t)×dim(tk)
  void syrk(int t, int tk, std::int8_t a, std::int8_t dst) {
    ops_.push_back({TileOp::Kind::kSyrk, a, dst, 0, 0, 0, dim(t), dim(t),
                    dim(tk)});
  }

  // dst (tm × tn tile) -= a·bᵀ with contraction depth dim(tk)
  void gemm(int tm, int tn, int tk, std::int8_t a, std::int8_t b,
            std::int8_t dst) {
    ops_.push_back({TileOp::Kind::kGemm, a, b, dst, 0, 0, dim(tm), dim(tn),
                    dim(tk)});
  }

  [[nodiscard]] std::vector<TileOp> take() { return std::move(ops_); }

 private:
  int n_;
  int nb_;
  int grid_;
  std::vector<TileOp> ops_;
};

// Top-looking order (paper Fig 11): for each block row kk, bring the stripe
// to the left of the diagonal up to date (gemm + trsm, one store per tile),
// then update and factor the diagonal tile. Fewest memory writes.
std::vector<TileOp> build_top(Builder& b) {
  const int T = b.grid();
  for (int kk = 0; kk < T; ++kk) {
    for (int nn = 0; nn < kk; ++nn) {
      b.load_full(kk, nn, kRA3);
      for (int mm = 0; mm < nn; ++mm) {
        b.load_full(kk, mm, kRA1);
        b.load_full(nn, mm, kRA2);
        b.gemm(kk, nn, mm, kRA1, kRA2, kRA3);
      }
      b.load_lower(nn, kRA1);
      b.trsm(kk, nn, kRA1, kRA3);
      b.store_full(kk, nn, kRA3);
    }
    b.load_lower(kk, kRA1);
    for (int nn = 0; nn < kk; ++nn) {
      b.load_full(kk, nn, kRA2);
      b.syrk(kk, nn, kRA2, kRA1);
    }
    b.potrf(kk, kRA1);
    b.store_lower(kk, kRA1);
  }
  return b.take();
}

// Left-looking order (the LAPACK structure): for each block column kk,
// first apply all pending updates from the left to the whole panel and
// write it back, then factor the panel (potrf + trsm) in a second pass.
// The panel is therefore written twice per step.
std::vector<TileOp> build_left(Builder& b) {
  const int T = b.grid();
  for (int kk = 0; kk < T; ++kk) {
    // Pass 1: deferred updates to block column kk.
    if (kk > 0) {
      b.load_lower(kk, kRA1);
      for (int mm = 0; mm < kk; ++mm) {
        b.load_full(kk, mm, kRA2);
        b.syrk(kk, mm, kRA2, kRA1);
      }
      b.store_lower(kk, kRA1);
      for (int ii = kk + 1; ii < T; ++ii) {
        b.load_full(ii, kk, kRA3);
        for (int mm = 0; mm < kk; ++mm) {
          b.load_full(ii, mm, kRA1);
          b.load_full(kk, mm, kRA2);
          b.gemm(ii, kk, mm, kRA1, kRA2, kRA3);
        }
        b.store_full(ii, kk, kRA3);
      }
    }
    // Pass 2: factor the panel. The factored diagonal stays in rA1 for the
    // triangular solves below it.
    b.load_lower(kk, kRA1);
    b.potrf(kk, kRA1);
    b.store_lower(kk, kRA1);
    for (int ii = kk + 1; ii < T; ++ii) {
      b.load_full(ii, kk, kRA3);
      b.trsm(ii, kk, kRA1, kRA3);
      b.store_full(ii, kk, kRA3);
    }
  }
  return b.take();
}

// Right-looking order (aggressive evaluation): factor the panel, then
// immediately update the entire trailing submatrix — every trailing tile is
// read and written once per step, which maximizes memory writes.
std::vector<TileOp> build_right(Builder& b) {
  const int T = b.grid();
  for (int kk = 0; kk < T; ++kk) {
    b.load_lower(kk, kRA1);
    b.potrf(kk, kRA1);
    b.store_lower(kk, kRA1);
    for (int ii = kk + 1; ii < T; ++ii) {
      b.load_full(ii, kk, kRA3);
      b.trsm(ii, kk, kRA1, kRA3);
      b.store_full(ii, kk, kRA3);
    }
    for (int jj = kk + 1; jj < T; ++jj) {
      b.load_lower(jj, kRA1);
      b.load_full(jj, kk, kRA2);
      b.syrk(jj, kk, kRA2, kRA1);
      b.store_lower(jj, kRA1);
      for (int ii = jj + 1; ii < T; ++ii) {
        b.load_full(ii, jj, kRA3);
        b.load_full(ii, kk, kRA1);
        b.load_full(jj, kk, kRA2);
        b.gemm(ii, jj, kk, kRA1, kRA2, kRA3);
        b.store_full(ii, jj, kRA3);
      }
    }
  }
  return b.take();
}

}  // namespace

TileProgram build_tile_program(int n, int nb, Looking looking) {
  IBCHOL_CHECK(n >= 1, "matrix dimension must be >= 1");
  IBCHOL_CHECK(nb >= 1, "tile size must be >= 1");
  IBCHOL_CHECK(nb <= n, "tile size must not exceed the matrix dimension");
  TileProgram program;
  program.n = n;
  program.nb = nb;
  program.looking = looking;
  Builder b(n, nb);
  switch (looking) {
    case Looking::kTop: program.ops = build_top(b); break;
    case Looking::kLeft: program.ops = build_left(b); break;
    case Looking::kRight: program.ops = build_right(b); break;
  }
  return program;
}

std::size_t validate_program(const TileProgram& program) {
  struct RegState {
    bool valid = false;
    std::int16_t rows = 0;
    std::int16_t cols = 0;
    bool lower = false;
  };
  RegState regs[8];
  IBCHOL_CHECK(program.num_register_tiles() <= 8,
               "program uses too many register tiles");

  auto require = [&](bool cond, std::size_t idx, const TileOp& op,
                     const char* what) {
    if (!cond) {
      throw Error("tile program invariant violated at op " +
                  std::to_string(idx) + " (" + to_string(op) + "): " + what);
    }
  };

  for (std::size_t idx = 0; idx < program.ops.size(); ++idx) {
    const TileOp& op = program.ops[idx];
    switch (op.kind) {
      case TileOp::Kind::kLoadFull:
      case TileOp::Kind::kLoadLower: {
        require(op.row0 >= 0 && op.col0 >= 0 &&
                    op.row0 + op.rows <= program.n &&
                    op.col0 + op.cols <= program.n,
                idx, op, "tile out of bounds");
        const bool lower = op.kind == TileOp::Kind::kLoadLower;
        if (lower) {
          require(op.rows == op.cols && op.row0 == op.col0, idx, op,
                  "lower tile must be diagonal and square");
        }
        regs[op.r1] = {true, op.rows, op.cols, lower};
        break;
      }
      case TileOp::Kind::kStoreFull:
      case TileOp::Kind::kStoreLower: {
        require(regs[op.r1].valid, idx, op, "storing an unloaded register");
        require(regs[op.r1].rows == op.rows && regs[op.r1].cols == op.cols,
                idx, op, "stored tile dims differ from register contents");
        break;
      }
      case TileOp::Kind::kPotrf: {
        require(regs[op.r1].valid, idx, op, "potrf on unloaded register");
        require(regs[op.r1].rows == op.rows && op.rows == op.cols, idx, op,
                "potrf tile must be square");
        break;
      }
      case TileOp::Kind::kTrsm: {
        require(regs[op.r1].valid && regs[op.r2].valid, idx, op,
                "trsm on unloaded registers");
        require(regs[op.r1].rows == op.cols && regs[op.r1].cols == op.cols,
                idx, op, "trsm triangle dims mismatch");
        require(regs[op.r2].rows == op.rows && regs[op.r2].cols == op.cols,
                idx, op, "trsm target dims mismatch");
        break;
      }
      case TileOp::Kind::kSyrk: {
        require(regs[op.r1].valid && regs[op.r2].valid, idx, op,
                "syrk on unloaded registers");
        require(regs[op.r1].rows == op.rows && regs[op.r1].cols == op.kdim,
                idx, op, "syrk A dims mismatch");
        require(regs[op.r2].rows == op.rows && regs[op.r2].cols == op.rows,
                idx, op, "syrk C dims mismatch");
        break;
      }
      case TileOp::Kind::kGemm: {
        require(regs[op.r1].valid && regs[op.r2].valid && regs[op.r3].valid,
                idx, op, "gemm on unloaded registers");
        require(regs[op.r1].rows == op.rows && regs[op.r1].cols == op.kdim,
                idx, op, "gemm A dims mismatch");
        require(regs[op.r2].rows == op.cols && regs[op.r2].cols == op.kdim,
                idx, op, "gemm B dims mismatch");
        require(regs[op.r3].rows == op.rows && regs[op.r3].cols == op.cols,
                idx, op, "gemm C dims mismatch");
        break;
      }
    }
  }
  return program.ops.size();
}

}  // namespace ibchol
