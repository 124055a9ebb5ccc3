// Shared pieces of the end-to-end benchmark: clocks, sample summaries, the
// benchmark's own span tracer, metric reporting, and the double-precision
// residual checks every workload runs on its set-up outputs.
#pragma once

#include <sys/mman.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ibchol::e2e {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bytes the benchmark itself holds (inputs, pristine copies, expected
/// outputs, the span buffer); peak_rss_mb subtracts them from ru_maxrss so
/// the metric tracks the program's memory, not the harness's.
[[nodiscard]] std::size_t& owned_bytes();

/// Zero-initialized array owned by the benchmark; its bytes count towards
/// owned_bytes() for as long as the process lives. Arrays of 2 MiB or more
/// are advised onto transparent huge pages before first touch: with 4 KiB
/// pages, where the kernel placed a batch changed its cache-set conflicts
/// from one process to the next and moved medians between identical runs.
template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "Buffer requires trivially copyable elements");

 public:
  Buffer() = default;
  explicit Buffer(std::size_t count) : size_(count) {
    constexpr std::size_t kHugePage = std::size_t{2} << 20;
    const std::size_t bytes = count * sizeof(T);
    const std::size_t align = bytes >= kHugePage ? kHugePage : 128;
    const std::size_t alloc = (bytes + align - 1) / align * align;
    void* p = std::aligned_alloc(align, alloc == 0 ? align : alloc);
    if (p == nullptr) throw std::bad_alloc{};
    if (align == kHugePage) (void)madvise(p, alloc, MADV_HUGEPAGE);
    std::memset(p, 0, alloc);
    data_.reset(static_cast<T*>(p));
    owned_bytes() += alloc;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] const T* data() const noexcept { return data_.get(); }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::span<T> span() noexcept { return {data(), size_}; }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }

 private:
  struct Free {
    void operator()(T* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<T[], Free> data_;
  std::size_t size_ = 0;
};

/// (ru_maxrss − owned_bytes()) in MiB.
[[nodiscard]] double program_peak_rss_mib();

/// Nearest-rank percentile; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Metrics of one run, written as the JSON detail file run.py reads.
class Report {
 public:
  /// A scalar metric; `count` is its sample count (0 = not a sample
  /// statistic), `pct` the percentile it reports (0 = none).
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t count = 0, double pct = 0.0);
  /// `<name>.p50` and the highest of p99.9, p99 and p90 that still has at
  /// least 10 samples beyond it, as `<name>.p<pct>`.
  void add_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  /// A context string (host facts) written next to the metrics.
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  /// Records a failed check; the run is then incorrect.
  void fail(const std::string& message);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] double value(const std::string& name) const;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed, double seconds) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t count;
    double pct;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// The benchmark's own spans around each public call. Preallocated and
/// recorded only by the thread driving the workload; written as JSONL at
/// exit. Disabled, every scope is a single branch.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t op = -1;
  };

  Tracer(bool enabled, std::size_t capacity);

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t idx_ = -1;
    bool active_ = false;
  };

  /// Opens a span that ends with the scope. `op` >= 0 starts a new
  /// operation (a root span); children inherit the open root's op id.
  [[nodiscard]] Scope scope(const char* name, std::int64_t op = -1) {
    return Scope(*this, name, op);
  }

  /// Records a span whose bounds were observed rather than bracketed (the
  /// service's queue and run phases). Returns its index, or -1 if dropped.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::int64_t op);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::size_t size_ = 0;
  std::int64_t dropped_ = 0;
  std::vector<std::int32_t> stack_;
  std::int64_t op_ = -1;
  int suppressed_ = 0;  ///< open scopes below a dropped root
};

/// Nominal flops of one Cholesky factorization (n³/3) and one solve (2n²).
[[nodiscard]] inline double factor_flops(int n) {
  return static_cast<double>(n) * n * n / 3.0;
}
[[nodiscard]] inline double solve_flops(int n) {
  return 2.0 * static_cast<double>(n) * n;
}

/// Rounds fp32 to bf16 (round to nearest even), as a caller storing a
/// reduced-precision batch would.
[[nodiscard]] std::uint16_t to_bf16(float f);
[[nodiscard]] float from_bf16(std::uint16_t h);

/// Largest relative factor residual ‖(A − L·Lᵀ)v‖ / (‖A‖_F·‖v‖) over the
/// batch, in double, for a fixed pseudo-random v per matrix. `a(b, i, j)`
/// reads the lower triangle of A, `l(b, i, j)` the factor (i ≥ j). O(n²)
/// per matrix, so every matrix is checked.
template <typename ReadA, typename ReadL>
double factor_residual(int n, std::int64_t batch, ReadA&& a, ReadL&& l);

/// Largest relative solve residual ‖Ax − b‖ / (‖A‖_F·‖x‖ + ‖b‖).
template <typename ReadA, typename ReadX, typename ReadB>
double solve_residual(int n, std::int64_t batch, ReadA&& a, ReadX&& x,
                      ReadB&& rhs);

/// True when `n` bytes at `a` and `b` match.
[[nodiscard]] inline bool same_bytes(const void* a, const void* b,
                                     std::size_t n) {
  return std::memcmp(a, b, n) == 0;
}

// ---- template bodies ----------------------------------------------------

namespace detail {
inline double probe_vector(std::int64_t b, int j) {
  return 1.0 + static_cast<double>((j * 7919 + b * 104729) % 17) / 17.0;
}
}  // namespace detail

/// Largest value of `fn(i, scratch)` over i in [0, count), computed on
/// hardware_concurrency() joined std::threads (not OpenMP: an idle OpenMP
/// team keeps spinning after its region and would steal cores from the
/// service workers being measured next). NaN propagates as the maximum.
template <typename Fn>
double parallel_max(std::int64_t count, Fn&& fn) {
  const unsigned hc = std::thread::hardware_concurrency();
  const std::int64_t threads = hc == 0 ? 1 : static_cast<std::int64_t>(hc);
  std::vector<double> worst(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (std::int64_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<double> scratch;
      double local = 0.0;
      for (std::int64_t i = t; i < count; i += threads) {
        const double r = fn(i, scratch);
        if (!(r <= local)) local = r;
      }
      worst[static_cast<std::size_t>(t)] = local;
    });
  }
  for (std::thread& th : pool) th.join();
  double w = 0.0;
  for (const double x : worst) {
    if (!(x <= w)) w = x;
  }
  return w;
}

template <typename ReadA, typename ReadL>
double factor_residual(int n, std::int64_t batch, ReadA&& a, ReadL&& l) {
  return parallel_max(batch, [&](std::int64_t b, std::vector<double>& s) {
    s.resize(3 * static_cast<std::size_t>(n));
    double* v = s.data();
    double* w = v + n;
    double* u = w + n;
    double vnorm = 0.0;
    for (int j = 0; j < n; ++j) {
      v[j] = detail::probe_vector(b, j);
      vnorm += v[j] * v[j];
    }
    // w = Lᵀv, u = Lw.
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int k = i; k < n; ++k) acc += l(b, k, i) * v[k];
      w[i] = acc;
    }
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int k = 0; k <= i; ++k) acc += l(b, i, k) * w[k];
      u[i] = acc;
    }
    double anorm = 0.0, rnorm = 0.0;
    for (int i = 0; i < n; ++i) {
      double av = 0.0;
      for (int j = 0; j < n; ++j) {
        const double aij = i >= j ? a(b, i, j) : a(b, j, i);
        av += aij * v[j];
        anorm += aij * aij;
      }
      rnorm += (av - u[i]) * (av - u[i]);
    }
    return std::sqrt(rnorm) / std::sqrt(anorm * vnorm);
  });
}

template <typename ReadA, typename ReadX, typename ReadB>
double solve_residual(int n, std::int64_t batch, ReadA&& a, ReadX&& x,
                      ReadB&& rhs) {
  return parallel_max(batch, [&](std::int64_t b, std::vector<double>&) {
    double anorm = 0.0, xnorm = 0.0, bnorm = 0.0, rnorm = 0.0;
    for (int i = 0; i < n; ++i) {
      double ax = 0.0;
      for (int j = 0; j < n; ++j) {
        const double aij = i >= j ? a(b, i, j) : a(b, j, i);
        ax += aij * x(b, j);
        anorm += aij * aij;
      }
      const double bi = rhs(b, i);
      rnorm += (ax - bi) * (ax - bi);
      xnorm += x(b, i) * x(b, i);
      bnorm += bi * bi;
    }
    return std::sqrt(rnorm) /
           (std::sqrt(anorm) * std::sqrt(xnorm) + std::sqrt(bnorm));
  });
}

}  // namespace ibchol::e2e
