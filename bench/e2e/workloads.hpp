// The five end-to-end workloads. Each generates its inputs from the seed,
// sets up (timed, several times), runs its timed window, checks every
// output, and reports its metrics (see README.md for the definitions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kernels/variant.hpp"
#include "cpu/batch_factor.hpp"

namespace ibchol::e2e {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny sizes and a ~0.3 s window: exercises every path and check.
  bool smoke = false;
  Tracer* tracer = nullptr;
  Report* report = nullptr;

  [[nodiscard]] Tracer& tr() const { return *tracer; }
  [[nodiscard]] Report& rep() const { return *report; }
  /// The traced run alone also measures the single-threaded baselines,
  /// after its timed window so they never perturb it.
  [[nodiscard]] bool traced() const { return tracer->enabled(); }
};

/// Timings of the repeated set-up. setup_s is the median total; the core.*
/// layer metrics are medians over every configuration of every repeat.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> params_us;
  std::vector<double> construct_us;
  std::vector<double> cold_us;

  void report(Report& r) const;
};

/// Set-up repeats per run, so setup_s is a median that one slow repeat
/// cannot move (als, whose set-up is a full iteration, uses fewer).
inline constexpr int kSetupRepeats = 21;

/// Options the facade derives from TuningParams for the synchronous
/// drivers (the service and the one-thread baselines are called with them).
[[nodiscard]] CpuFactorOptions cpu_options(const TuningParams& p, int n,
                                           int num_threads);

/// Reports runtime.call_p50_us and kernel.gflops from per-configuration
/// medians (geometric means across configurations), and, when the traced
/// run measured them, runtime.call_1t_p50_us and runtime.speedup_vs_1t.
void report_runtime(Report& r, const std::vector<double>& call_us,
                    const std::vector<double>& call_1t_us,
                    const std::vector<double>& flops_per_call);

/// Calls `fn` at least `min_reps` times, then until `budget_s` has elapsed
/// or `max_reps` calls were made.
template <typename Fn>
void repeat_for(double budget_s, int min_reps, int max_reps, Fn&& fn) {
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (int i = 0; i < max_reps && (i < min_reps || now_ns() < stop); ++i) {
    fn();
  }
}

/// Residual tolerances of the set-up checks: fp32, and the bf16 lane whose
/// input and factor are both rounded to 8 mantissa bits.
inline constexpr double kFp32Tolerance = 1e-4;
inline constexpr double kBf16Tolerance = 5e-2;

/// True when the factorization reported no failure and every per-matrix
/// info code is 0 (all inputs are SPD).
[[nodiscard]] inline bool factored_cleanly(
    const FactorResult& r, const std::vector<std::int32_t>& info) {
  if (!r.ok()) return false;
  for (const std::int32_t v : info) {
    if (v != 0) return false;
  }
  return true;
}

void run_facade_small(Context& ctx);
void run_facade_bulk(Context& ctx);
void run_service_open(Context& ctx);
void run_tiled_large(Context& ctx);
void run_als(Context& ctx);

}  // namespace ibchol::e2e
