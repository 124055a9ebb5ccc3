#include "tune/instant.hpp"

#include <cmath>
#include <utility>

#include "core/tuned_overrides.hpp"
#include "cpu/chunk_pipeline.hpp"
#include "cpu/simd/isa.hpp"
#include "obs/counters.hpp"

namespace ibchol::tune {

SpaceOptions default_instant_space() {
  SpaceOptions space;
  // The two executors kAuto chooses between.
  space.execs = {CpuExec::kInterpreter, CpuExec::kVectorized};
  space.isas = {SimdIsa::kAuto};
  return space;
}

// Per-size drift accounting, shared (via shared_ptr) with the installed
// facade observer so a factorize call racing the tuner's destruction only
// ever touches this state, never the tuner.
struct InstantTuner::ObsState {
  struct PerN {
    double expected = 0.0;  ///< cached winner's per-matrix seconds
    double sum = 0.0;       ///< accumulated observed per-matrix seconds
    std::int64_t count = 0;
    bool drifted = false;
  };

  std::mutex mu;
  std::map<int, PerN> by_n;
  double threshold = 0.25;
  int min_samples = 8;

  void set_expectation(int n, double per_matrix_seconds) {
    const std::lock_guard<std::mutex> lock(mu);
    PerN& s = by_n[n];
    s.expected = per_matrix_seconds;
    s.sum = 0.0;
    s.count = 0;
    s.drifted = false;
  }

  void note(int n, std::int64_t batch, double seconds) {
    if (batch <= 0 || !(seconds > 0.0)) return;
    const double per_matrix = seconds / static_cast<double>(batch);
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = by_n.find(n);
    if (it == by_n.end()) return;  // size never tuned: nothing to compare
    PerN& s = it->second;
    s.sum += per_matrix;
    ++s.count;
    if (s.drifted || s.expected <= 0.0 || s.count < min_samples) return;
    const double mean = s.sum / static_cast<double>(s.count);
    if (std::abs(mean - s.expected) > threshold * s.expected) {
      s.drifted = true;
      IBCHOL_COUNT("tune.drift_detected", 1);
    }
  }
};

namespace {

// Layout domain the space actually searches — part of the cache key, so a
// chunked-only tuner never reuses a winner searched over both layouts.
std::string layout_domain_of(const SpaceOptions& space) {
  const bool chunked = !space.chunk_sizes.empty();
  if (space.include_non_chunked && chunked) return "any";
  return chunked ? "chunked" : "simple";
}

}  // namespace

InstantTuner::InstantTuner(Evaluator& eval, InstantOptions options,
                           HostProfile profile)
    : eval_(eval),
      options_(std::move(options)),
      profile_(std::move(profile)),
      model_(calibrated_kernel_model(profile_)),
      layout_domain_(layout_domain_of(options_.space)),
      obs_(std::make_shared<ObsState>()) {
  obs_->threshold = options_.drift_threshold;
  obs_->min_samples = options_.min_drift_samples;
  // The probe space measures exactly the storage lane the key names.
  options_.space.storage_precs = {options_.storage};
  if (options_.cache_path.empty()) {
    options_.cache_path = default_tune_cache_path();
  }
  if (!options_.cache_path.empty()) {
    const TuneCache cache = TuneCache::load(options_.cache_path);
    for (const auto& [_, entry] : cache.entries()) {
      // Adopt only entries for this exact key shape; a corrupt or foreign
      // line was already skipped by the loader (fail-closed cold start).
      if (entry.key.to_string() == key_for(entry.key.n).to_string()) {
        winners_[entry.key.n] = entry.record;
        obs_->set_expectation(
            entry.key.n,
            entry.record.seconds / static_cast<double>(options_.batch));
      }
    }
    writer_ = std::make_unique<TuneCacheWriter>(options_.cache_path);
  }
  if (options_.install_overrides) install();
}

InstantTuner::~InstantTuner() {
  // The observer would keep feeding a tuner-less ObsState (safe but
  // useless); drop it. The override tables stay: they are immutable value
  // snapshots and remain this host's best-known answers.
  set_factor_observer(nullptr);
}

TuneKey InstantTuner::key_for(int n) const {
  TuneKey key;
  key.host = profile_.fingerprint();
  key.n = n;
  key.batch = options_.batch;
  key.layout = layout_domain_;
  key.tier = profile_.isa;
  key.storage = options_.storage;
  return key;
}

TuningParams InstantTuner::tune_now(int n) {
  const ProbePlan plan =
      plan_probes(model_, n, options_.batch, options_.space, options_.top_k);
  const ProbeResult result = run_probe_plan(eval_, plan);
  winners_[n] = result.winner;
  obs_->set_expectation(
      n, result.winner.seconds / static_cast<double>(options_.batch));
  if (writer_) {
    TuneCacheEntry entry;
    entry.key = key_for(n);
    entry.record = result.winner;
    writer_->append(entry);
  }
  return result.winner.params;
}

TuningParams InstantTuner::params_for(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = winners_.find(n);
  if (it != winners_.end()) {
    IBCHOL_COUNT("tune.cache_hit", 1);
    return it->second.params;
  }
  IBCHOL_COUNT("tune.cache_miss", 1);
  const TuningParams params = tune_now(n);
  if (options_.install_overrides) install();
  return params;
}

void InstantTuner::observe(int n, std::int64_t batch, double seconds) {
  obs_->note(n, batch, seconds);
}

std::vector<int> InstantTuner::drifted() const {
  std::vector<int> sizes;
  const std::lock_guard<std::mutex> lock(obs_->mu);
  for (const auto& [n, s] : obs_->by_n) {
    if (s.drifted) sizes.push_back(n);
  }
  return sizes;
}

int InstantTuner::poll_drift() {
  const std::vector<int> sizes = drifted();
  if (sizes.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const int n : sizes) {
    winners_.erase(n);
    IBCHOL_COUNT("tune.retune", 1);
    (void)tune_now(n);  // resets the drift state via set_expectation
  }
  if (options_.install_overrides) install();
  return static_cast<int>(sizes.size());
}

void InstantTuner::install() {
  auto table = std::make_shared<std::map<int, TuningParams>>();
  auto execs =
      std::make_shared<std::map<std::pair<int, SimdIsa>, CpuExec>>();
  for (const auto& [n, rec] : winners_) {
    (*table)[n] = rec.params;
    // kAuto winners (the tiled lane) keep the pipeline's own dispatch.
    if (rec.params.exec != CpuExec::kAuto) {
      (*execs)[{n, resolve_simd_isa(rec.params.isa)}] = rec.params.exec;
    }
  }
  set_recommended_overrides(std::move(table));
  set_cpu_exec_overrides(std::move(execs));
  // The observer captures the shared state only — never `this`.
  std::shared_ptr<ObsState> obs = obs_;
  set_factor_observer(std::make_shared<const FactorObserver>(
      [obs](int n, std::int64_t batch, double seconds) {
        obs->note(n, batch, seconds);
      }));
}

void InstantTuner::uninstall() {
  set_recommended_overrides(nullptr);
  set_cpu_exec_overrides(nullptr);
  set_factor_observer(nullptr);
}

}  // namespace ibchol::tune
