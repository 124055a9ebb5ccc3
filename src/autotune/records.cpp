#include "autotune/records.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.hpp"

namespace ibchol {

namespace {

// Records a reducer must never consider: failed points carry NaN times, and
// `r.gflops > best` is false for every comparison against NaN, so a single
// failed record seen first would win the argmax forever.
bool unusable(const SweepRecord& r) {
  return r.failed || !std::isfinite(r.seconds) || !std::isfinite(r.gflops);
}

}  // namespace

std::vector<int> SweepDataset::sizes() const {
  std::set<int> s;
  for (const auto& r : records_) s.insert(r.n);
  return {s.begin(), s.end()};
}

std::optional<SweepRecord> SweepDataset::best(
    int n, const std::function<bool(const SweepRecord&)>& filter) const {
  std::optional<SweepRecord> out;
  for (const auto& r : records_) {
    if (r.n != n) continue;
    if (unusable(r)) continue;
    if (filter && !filter(r)) continue;
    if (!out || r.gflops > out->gflops) out = r;
  }
  return out;
}

std::map<int, SweepRecord> SweepDataset::best_by_n(
    const std::function<bool(const SweepRecord&)>& filter) const {
  std::map<int, SweepRecord> out;
  for (const auto& r : records_) {
    if (unusable(r)) continue;
    if (filter && !filter(r)) continue;
    auto it = out.find(r.n);
    if (it == out.end() || r.gflops > it->second.gflops) out[r.n] = r;
  }
  return out;
}

CsvTable SweepDataset::to_csv() const {
  CsvTable t;
  t.header = {"n",          "batch",   "nb",        "looking", "chunked",
              "chunk_size", "unroll",  "math",      "cache",   "exec",
              "isa",        "storage", "lookahead", "seconds", "gflops",
              "attempts",   "failed"};
  for (const auto& r : records_) {
    t.rows.push_back({std::to_string(r.n), std::to_string(r.batch),
                      std::to_string(r.params.nb),
                      to_string(r.params.looking),
                      r.params.chunked ? "1" : "0",
                      std::to_string(r.params.chunk_size),
                      to_string(r.params.unroll), to_string(r.params.math),
                      r.params.prefer_shared ? "shared" : "l1",
                      to_string(r.params.exec), to_string(r.params.isa),
                      to_string(r.params.storage),
                      std::to_string(r.params.lookahead),
                      std::to_string(r.seconds), std::to_string(r.gflops),
                      std::to_string(r.attempts), r.failed ? "1" : "0"});
  }
  return t;
}

SweepDataset SweepDataset::from_csv(const CsvTable& table) {
  SweepDataset ds;
  const std::size_t cn = table.column("n");
  const std::size_t cb = table.column("batch");
  const std::size_t cnb = table.column("nb");
  const std::size_t clook = table.column("looking");
  const std::size_t cch = table.column("chunked");
  const std::size_t ccs = table.column("chunk_size");
  const std::size_t cun = table.column("unroll");
  const std::size_t cma = table.column("math");
  const std::size_t cca = table.column("cache");
  const std::size_t cs = table.column("seconds");
  const std::size_t cg = table.column("gflops");
  // Datasets persisted before the executor axis existed have no "exec"
  // column; those records measured the default executor.
  const auto cex_it = std::find(table.header.begin(), table.header.end(),
                                std::string("exec"));
  const bool has_exec = cex_it != table.header.end();
  const std::size_t cex =
      static_cast<std::size_t>(cex_it - table.header.begin());
  // And datasets persisted before the vectorized executor have no "isa"
  // column; ISA selection only matters to kVectorized, so kAuto is a
  // faithful default for those records.
  const auto cisa_it = std::find(table.header.begin(), table.header.end(),
                                 std::string("isa"));
  const bool has_isa = cisa_it != table.header.end();
  const std::size_t cisa =
      static_cast<std::size_t>(cisa_it - table.header.begin());
  // Datasets persisted before the reduced-precision storage lanes have no
  // "storage" column; every such record measured the fp32 path.
  const auto cst_it = std::find(table.header.begin(), table.header.end(),
                                std::string("storage"));
  const bool has_storage = cst_it != table.header.end();
  const std::size_t cst =
      static_cast<std::size_t>(cst_it - table.header.begin());
  // Datasets persisted before the tiled large-N lane have no "lookahead"
  // column; only the tiled executor reads it, so the default is faithful.
  const auto cla_it = std::find(table.header.begin(), table.header.end(),
                                std::string("lookahead"));
  const bool has_lookahead = cla_it != table.header.end();
  const std::size_t cla =
      static_cast<std::size_t>(cla_it - table.header.begin());
  // Likewise, datasets persisted before the resilient sweep existed have no
  // attempts/failed columns; those records were single-attempt successes.
  const auto cat_it = std::find(table.header.begin(), table.header.end(),
                                std::string("attempts"));
  const bool has_attempts = cat_it != table.header.end();
  const std::size_t cat =
      static_cast<std::size_t>(cat_it - table.header.begin());
  const auto cfl_it = std::find(table.header.begin(), table.header.end(),
                                std::string("failed"));
  const bool has_failed = cfl_it != table.header.end();
  const std::size_t cfl =
      static_cast<std::size_t>(cfl_it - table.header.begin());
  for (const auto& row : table.rows) {
    SweepRecord r;
    r.n = std::stoi(row[cn]);
    r.batch = std::stoll(row[cb]);
    r.params.nb = std::stoi(row[cnb]);
    r.params.looking = looking_from_string(row[clook]);
    r.params.chunked = row[cch] == "1";
    r.params.chunk_size = std::stoi(row[ccs]);
    r.params.unroll = unroll_from_string(row[cun]);
    r.params.math = math_from_string(row[cma]);
    r.params.prefer_shared = row[cca] == "shared";
    r.params.exec =
        has_exec ? cpu_exec_from_string(row[cex]) : CpuExec::kInterpreter;
    r.params.isa = has_isa ? simd_isa_from_string(row[cisa]) : SimdIsa::kAuto;
    r.params.storage = has_storage ? storage_prec_from_string(row[cst])
                                   : StoragePrec::kFp32;
    if (has_lookahead) r.params.lookahead = std::stoi(row[cla]);
    r.seconds = std::stod(row[cs]);
    r.gflops = std::stod(row[cg]);
    r.attempts = has_attempts ? std::stoi(row[cat]) : 1;
    r.failed = has_failed && row[cfl] == "1";
    ds.add(std::move(r));
  }
  return ds;
}

}  // namespace ibchol
