// End-to-end benchmark binary: runs one workload for a fixed window and
// writes its metrics as JSON (and, when tracing, the benchmark's own spans
// as JSONL). run.py builds and drives it; README.md defines every metric.
//
//   e2e_bench --workload=<name> --seed=<n> --seconds=<s> --json=<path>
//             [--trace=<path>]
//   e2e_bench --smoke        every workload at tiny sizes, all checks on
#include <iostream>
#include <string>
#include <thread>

#include "cpu/simd/isa.hpp"
#include "cpu/thread_util.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace ibchol::e2e {

CpuFactorOptions cpu_options(const TuningParams& p, int n, int num_threads) {
  CpuFactorOptions o;
  o.nb = p.effective_nb(n);
  o.looking = p.looking;
  o.unroll = p.unroll;
  o.math = p.math;
  o.exec = p.exec;
  o.isa = p.isa;
  o.chunk_size = p.chunked ? 0 : p.chunk_size;
  o.num_threads = num_threads;
  return o;
}

void SetupTimes::report(Report& r) const {
  // Medians of the set-up repeats; count is the number of repeats.
  r.add("setup_s", median(total_s), "s", total_s.size());
  r.add("core.recommended_params_us", median(params_us), "us",
        params_us.size());
  r.add("core.construct_us", median(construct_us), "us", construct_us.size());
  r.add("core.cold_call_us", median(cold_us), "us", cold_us.size());
}

void report_runtime(Report& r, const std::vector<double>& call_us,
                    const std::vector<double>& call_1t_us,
                    const std::vector<double>& flops_per_call) {
  std::vector<double> rate, speedup;
  for (std::size_t i = 0; i < call_us.size(); ++i) {
    rate.push_back(flops_per_call[i] / call_us[i] / 1e3);
    if (i < call_1t_us.size()) speedup.push_back(call_1t_us[i] / call_us[i]);
  }
  r.add("runtime.call_p50_us", geomean(call_us), "us");
  r.add("kernel.gflops", geomean(rate), "GFLOP/s");
  if (!call_1t_us.empty()) {
    r.add("runtime.call_1t_p50_us", geomean(call_1t_us), "us");
    r.add("runtime.speedup_vs_1t", geomean(speedup), "x");
  }
}

namespace {

using WorkloadFn = void (*)(Context&);

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> all = {
      {"facade_small", run_facade_small},
      {"facade_bulk", run_facade_bulk},
      {"service_open", run_service_open},
      {"tiled_large", run_tiled_large},
      {"als", run_als},
  };
  return all;
}

/// Cost of recording one span (open + close), measured on a scratch
/// tracer so the traced run can state its own overhead.
double span_cost_ns() {
  constexpr int kPairs = 50000;
  Tracer t(true, 2 * kPairs);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) {
    auto root = t.scope("op", i);
    auto child = t.scope("child");
  }
  return static_cast<double>(now_ns() - t0) / (2.0 * kPairs);
}

/// Capacity of the span buffer: spans past it are dropped whole-operation.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

void run_one(WorkloadFn fn, Context& ctx) {
  fn(ctx);
  Report& rep = ctx.rep();
  rep.add("peak_rss_mb", program_peak_rss_mib(), "MiB");
  if (ctx.traced()) {
    rep.add("trace.span_cost_ns", span_cost_ns(), "ns");
    rep.add("trace.spans", static_cast<double>(ctx.tr().size()), "count");
    rep.add("trace.dropped", static_cast<double>(ctx.tr().dropped()), "count");
  }
}

int smoke() {
  bool all_ok = true;
  for (const auto& [name, fn] : workloads()) {
    Tracer tracer(true, kTraceCapacity);
    Report report;
    Context ctx{.seed = 1, .seconds = 0.3, .smoke = true, .tracer = &tracer,
                .report = &report};
    run_one(fn, ctx);
    bool ok = report.correct() && report.attempted > 0 && report.failed == 0;
    // peak_rss_mb is not checked: ru_maxrss is a process-wide maximum and
    // smoke runs every workload in one process.
    for (const char* m : {"setup_s", "latency_p50_us", "systems_per_s",
                          "runtime.call_1t_p50_us"}) {
      if (!(report.value(m) > 0.0)) {
        std::cout << "  " << m << " = " << report.value(m) << "\n";
        ok = false;
      }
    }
    std::cout << "smoke " << name << ": " << (ok ? "ok" : "FAILED")
              << " (attempted " << report.attempted << ")\n";
    for (const std::string& f : report.failures()) {
      std::cout << "  " << f << "\n";
    }
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  if (cli.get_bool("smoke", false)) return smoke();

  const std::string name = cli.get("workload", "");
  const std::string json = cli.get("json", "");
  const std::string trace = cli.get("trace", "");
  const long seed = cli.get_int("seed", 1);
  const double seconds = cli.get_double("seconds", 10.0);
  WorkloadFn fn = nullptr;
  for (const auto& [n, f] : workloads()) {
    if (n == name) fn = f;
  }
  if (fn == nullptr || json.empty() || seed < 0 || !(seconds > 0.0)) {
    std::cerr << "usage: e2e_bench --workload=<facade_small|facade_bulk|"
                 "service_open|tiled_large|als> --seed=<n> --seconds=<s> "
                 "--json=<path> [--trace=<path>] | --smoke\n";
    return 2;
  }

  Tracer tracer(!trace.empty(), trace.empty() ? 0 : kTraceCapacity);
  Report report;
  Context ctx{.seed = static_cast<std::uint64_t>(seed), .seconds = seconds,
              .smoke = false, .tracer = &tracer, .report = &report};
  run_one(fn, ctx);
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("omp_threads", std::to_string(cached_default_threads()));
  report.note("simd_tier", to_string(resolve_simd_isa(SimdIsa::kAuto)));
  if (!trace.empty()) tracer.write_jsonl(trace);
  report.write_json(json, name, static_cast<std::uint64_t>(seed), seconds);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace ibchol::e2e

int main(int argc, char** argv) {
  try {
    return ibchol::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
