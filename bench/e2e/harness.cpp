#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace ibchol::e2e {

std::size_t& owned_bytes() {
  static std::size_t bytes = 0;
  return bytes;
}

double program_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss = static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB
  return (rss - static_cast<double>(owned_bytes())) / (1024.0 * 1024.0);
}

namespace {

constexpr std::size_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank `pct` percentile of `count`
/// (run.py applies the same rule).
std::size_t samples_beyond(std::size_t count, double pct) {
  // Nearest rank: the percentile is the ceil(pct/100 · count)-th sample.
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(count) - 1e-9));
  return count - std::min(rank, count);
}

double at_percentile(const std::vector<double>& sorted, double pct) {
  const std::size_t rank = sorted.size() - samples_beyond(sorted.size(), pct);
  return sorted[rank == 0 ? 0 : rank - 1];
}

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when no tail percentile qualifies
  double tail = 0.0;
};

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = at_percentile(samples, 50.0);
  for (const double pct : {99.9, 99.0, 90.0}) {
    if (samples_beyond(s.count, pct) >= kMinBeyond) {
      s.tail_pct = pct;
      s.tail = at_percentile(samples, pct);
      break;
    }
  }
  return s;
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return at_percentile(samples, pct);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t count, double pct) {
  metrics_.push_back({name, value, unit, count, pct});
}

void Report::add_timing(const std::string& name,
                        const std::vector<double>& samples,
                        const std::string& unit) {
  const Summary s = summarize(samples);
  add(name + ".p50", s.p50, unit, s.count, 50.0);
  if (s.tail_pct > 0.0) {
    std::ostringstream tail;
    tail << name << ".p" << s.tail_pct;
    add(tail.str(), s.tail, unit, s.count, s.tail_pct);
  }
}

void Report::fail(const std::string& message) {
  if (failures_.size() < 32) failures_.push_back(message);
  else if (failures_.size() == 32) failures_.push_back("(further failures elided)");
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw Error("metric not reported: " + name);
}

namespace {
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Report::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed, double seconds) const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"workload\": " << quoted(workload) << ", \"seed\": " << seed
     << ", \"seconds\": " << seconds
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"context\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    os << (i > 0 ? ", " : "") << quoted(notes_[i].first) << ": "
       << quoted(notes_[i].second);
  }
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i > 0 ? ", " : "") << quoted(failures_[i]);
  }
  os << "], \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/Inf; a non-finite metric is reported as null and
    // run.py treats it as a failed measurement.
    os << (i > 0 ? ",\n  " : "\n  ") << "{\"name\": " << quoted(m.name)
       << ", \"value\": ";
    if (std::isfinite(m.value)) os << m.value;
    else os << "null";
    os << ", \"unit\": " << quoted(m.unit) << ", \"count\": " << m.count
       << ", \"pct\": " << m.pct << "}";
  }
  os << "]}\n";
  std::ofstream out(path);
  IBCHOL_CHECK(out.good(), "cannot write " + path);
  out << os.str();
}

Tracer::Tracer(bool enabled, std::size_t capacity) : enabled_(enabled) {
  if (!enabled_) return;
  owned_bytes() += capacity * sizeof(Span);
  spans_.resize(capacity);
  stack_.reserve(64);
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::int64_t op) : t_(t) {
  if (!t.enabled_) return;
  active_ = true;
  if (op >= 0) t.op_ = op;
  if (t.suppressed_ > 0 || t.size_ == t.spans_.size()) {
    // A dropped root drops its whole subtree so no span is orphaned.
    ++t.suppressed_;
    ++t.dropped_;
    return;
  }
  idx_ = static_cast<std::int32_t>(t.size_++);
  Span& s = t.spans_[static_cast<std::size_t>(idx_)];
  s.name = name;
  s.parent = t.stack_.empty() ? -1 : t.stack_.back();
  s.op = t.op_;
  t.stack_.push_back(idx_);
  s.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  if (idx_ < 0) {
    --t_.suppressed_;
    return;
  }
  t_.spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  t_.stack_.pop_back();
}

std::int32_t Tracer::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         std::int64_t op) {
  if (!enabled_) return -1;
  if (size_ == spans_.size()) {
    ++dropped_;
    return -1;
  }
  const auto idx = static_cast<std::int32_t>(size_++);
  spans_[static_cast<std::size_t>(idx)] = {name, start_ns, end_ns, parent, op};
  return idx;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  IBCHOL_CHECK(f != nullptr, "cannot write " + path);
  for (std::size_t i = 0; i < size_; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op));
  }
  std::fclose(f);
}

std::uint16_t to_bf16(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

float from_bf16(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

}  // namespace ibchol::e2e
