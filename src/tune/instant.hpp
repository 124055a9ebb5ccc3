// The instant tuner: cache-hit → answer in microseconds; cache-miss →
// model-guided probing instead of an exhaustive sweep; drift → re-tune.
//
// Lifecycle per (host, n, batch, layout domain, tier, storage) key:
//
//          ┌────────── cold start (no entry / bad line / version bump)
//          v
//   [MISS] plan_probes (model top-K) → run_probe_plan (K evaluator
//          probes) → winner appended to the cache file → installed
//          v
//   [WARM] params_for(n) answers from memory — zero evaluator probes —
//          and recommended_params(n)/resolve_cpu_exec consult the
//          installed override tables (tune.override_hit / tune.exec_
//          override counters)
//          v
//   [DRIFT] the facade observer feeds per-call times into observe(); when
//          the running mean deviates from the cached winner's expectation
//          by more than drift_threshold (default 25%) over at least
//          min_drift_samples calls, the key is marked drifted
//          (tune.drift_detected) and poll_drift() re-probes it
//          (tune.retune), appending a fresh cache line and re-installing.
//
// Install/uninstall swap immutable snapshots (core/tuned_overrides,
// cpu set_cpu_exec_overrides); the observer holds the tuner's accumulator
// state via shared_ptr, so a facade call racing the tuner's destruction
// never touches freed memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autotune/evaluator.hpp"
#include "autotune/space.hpp"
#include "simt/kernel_model.hpp"
#include "tune/cache.hpp"
#include "tune/host_probe.hpp"
#include "tune/probe_plan.hpp"

namespace ibchol::tune {

/// The search domain instant tuning covers by default: both interleaved
/// layouts, the two executors kAuto chooses between (interpreter and
/// vectorized), the host's best tier.
[[nodiscard]] SpaceOptions default_instant_space();

struct InstantOptions {
  /// Cache file; "" takes IBCHOL_TUNE_CACHE (default_tune_cache_path), and
  /// an empty result disables persistence (in-memory only).
  std::string cache_path;
  std::int64_t batch = 16384;
  int top_k = 8;
  SpaceOptions space = default_instant_space();
  StoragePrec storage = StoragePrec::kFp32;
  /// Install winners into recommended_params / resolve_cpu_exec as they
  /// are found or loaded.
  bool install_overrides = true;
  /// Relative deviation of observed per-matrix time from the cached
  /// expectation that marks a key drifted.
  double drift_threshold = 0.25;
  /// Observations required before drift can trigger (smooths cold caches
  /// and scheduler noise).
  int min_drift_samples = 8;
};

class InstantTuner {
 public:
  /// `eval` must outlive the tuner (it runs the probes; cache hits never
  /// touch it). `profile` defaults to the process-wide calibration.
  explicit InstantTuner(Evaluator& eval, InstantOptions options = {},
                        HostProfile profile = cached_host_profile());
  ~InstantTuner();

  InstantTuner(const InstantTuner&) = delete;
  InstantTuner& operator=(const InstantTuner&) = delete;

  /// The tuned parameters for size n: warm keys answer from memory
  /// ("tune.cache_hit", zero probes), cold keys run the model-guided probe
  /// path ("tune.cache_miss" + K × "tune.probe") and persist the winner.
  [[nodiscard]] TuningParams params_for(int n);

  /// Feeds one observed factorization (per-batch wall seconds) into the
  /// drift detector. The installed facade observer calls this; tests may
  /// call it directly.
  void observe(int n, std::int64_t batch, double seconds);

  /// Sizes currently marked drifted (expectation missed by more than
  /// drift_threshold over ≥ min_drift_samples observations).
  [[nodiscard]] std::vector<int> drifted() const;

  /// Re-tunes every drifted size now (synchronously, on this thread):
  /// fresh probes, fresh cache line, tables re-installed. Returns the
  /// number of sizes re-tuned.
  int poll_drift();

  /// (Re)installs the override tables and the facade observer from the
  /// current in-memory winners.
  void install();

  /// Clears every global hook this subsystem installs (override table,
  /// exec table, observer) — back to paper defaults. Static: safe to call
  /// without a live tuner, e.g. from test teardown.
  static void uninstall();

  [[nodiscard]] const KernelModel& model() const { return model_; }
  [[nodiscard]] const HostProfile& profile() const { return profile_; }
  [[nodiscard]] const InstantOptions& options() const { return options_; }
  /// The cache key params_for(n) uses (exposed for tests).
  [[nodiscard]] TuneKey key_for(int n) const;

 private:
  struct ObsState;  // per-size running mean vs expectation; shared with
                    // the installed observer

  TuningParams tune_now(int n);  ///< probe path; mu_ must be held

  Evaluator& eval_;
  InstantOptions options_;
  HostProfile profile_;
  KernelModel model_;
  std::string layout_domain_;

  mutable std::mutex mu_;
  std::map<int, SweepRecord> winners_;  ///< by n, under mu_
  std::unique_ptr<TuneCacheWriter> writer_;
  std::shared_ptr<ObsState> obs_;
};

}  // namespace ibchol::tune
