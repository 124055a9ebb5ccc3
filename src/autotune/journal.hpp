// Crash-safe JSONL journal of completed sweep points.
//
// A ~14,000-point sweep that dies at point 13,999 (crash, Ctrl-C, node
// preemption) must not forfeit the finished work. The driver appends one
// self-contained JSON object per completed record — flushed per line, so
// the file is valid up to the last whole line no matter when the process
// dies — and a resumed sweep replays the journal to skip finished points.
//
// Line format (one object per line, fixed key order):
//   {"n":24,"batch":16384,"nb":8,"looking":"top","chunked":1,
//    "chunk_size":64,"unroll":"partial","math":"ieee","cache":"l1",
//    "exec":"interp","seconds":1.234e-05,"gflops":56.7,"attempts":1,
//    "failed":0}
//
// Doubles are printed with %.17g so a journaled record parses back to the
// bit-identical value — resuming from a journal reproduces the exact
// dataset an uninterrupted run would have produced. NaN (a failed point's
// time) is serialized as JSON null. The reader is tolerant: a truncated or
// malformed trailing line — the signature of a crash mid-write — is
// skipped, not fatal.
#pragma once

#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "autotune/records.hpp"

namespace ibchol {

/// Serializes one record as a single JSON line (no trailing newline).
[[nodiscard]] std::string journal_line(const SweepRecord& record);

/// Parses one journal line; nullopt for malformed/truncated lines.
[[nodiscard]] std::optional<SweepRecord> parse_journal_line(
    const std::string& line);

/// Reads every parseable record from a journal file. A missing file yields
/// an empty vector (a fresh sweep resuming from nothing is not an error);
/// malformed lines are skipped.
[[nodiscard]] std::vector<SweepRecord> read_journal(const std::string& path);

/// Appends records to a journal file, one flushed line per record.
/// Thread-safe: the sweep driver journals from worker threads.
class JournalWriter {
 public:
  /// Opens `path` for appending (creating it if absent); throws on failure.
  explicit JournalWriter(const std::string& path);

  void append(const SweepRecord& record);

 private:
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace ibchol
