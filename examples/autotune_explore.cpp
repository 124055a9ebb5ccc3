// Autotuner walkthrough: sweep the tuning space, inspect the winners, and
// verify the winning kernel numerically on the CPU substrate.
//
//   $ autotune_explore [--sizes=8,16,24,32,48] [--batch=16384]
//                      [--evaluator=model|cpu] [--exec=interp,vectorized,auto]
//                      [--csv=sweep.csv] [--journal=sweep.jsonl] [--resume]
//                      [--trace=sweep_trace.json]
//
// The model evaluator sweeps the full space through the P100 SIMT model
// (fast); --evaluator=cpu measures every variant on the CPU substrate
// instead (slow but real — use small sizes/batches). --exec adds the
// executor axis to the space (comma-separated; default is the historical
// interpreter-only grid); vectorized entries sweep the host's auto-detected
// SIMD tier. Long measured sweeps should set --journal so completed points
// survive an interruption; rerunning with --resume picks up where the
// journal left off. --trace records one span per sweep point (plus one per
// evaluation attempt) and exports a Chrome trace_event JSON — or JSONL when
// the path ends in ".jsonl" — mirroring the journal one to one; it needs a
// build with IBCHOL_OBS=ON (see docs/OBSERVABILITY.md).
#include <cstdio>
#include <sstream>

#include "autotune/dispatch.hpp"
#include "autotune/evaluator.hpp"
#include "autotune/sweep.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "obs/trace.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace ibchol;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  SweepOptions opt;
  {
    std::stringstream ss(cli.get("sizes", "8,16,24,32,48"));
    std::string tok;
    while (std::getline(ss, tok, ',')) opt.sizes.push_back(std::stoi(tok));
  }
  opt.batch = cli.get_int("batch", 16384);
  if (cli.has("exec")) {
    std::stringstream ss(cli.get("exec", ""));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      opt.space.execs.push_back(cpu_exec_from_string(tok));
    }
  }
  const std::string backend = cli.get("evaluator", "model");

  std::unique_ptr<Evaluator> evaluator;
  if (backend == "cpu") {
    evaluator = std::make_unique<CpuMeasuredEvaluator>();
  } else {
    evaluator =
        std::make_unique<ModelEvaluator>(KernelModel(GpuSpec::p100()));
  }
  std::printf("exhaustive sweep via %s, batch %lld\n",
              evaluator->name().c_str(), static_cast<long long>(opt.batch));

  if (cli.has("journal")) {
    opt.journal_path = cli.get("journal", "");
    opt.max_retries = 1;  // one free retry for flaky measured evaluations
    if (cli.get_bool("resume", false)) {
      opt.resume_from = opt.journal_path;
      std::printf("resuming from journal %s\n", opt.journal_path.c_str());
    }
  }

  std::size_t last_percent = 0;
  opt.progress = [&](std::size_t done, std::size_t total) {
    const std::size_t percent = done * 100 / total;
    if (percent / 10 != last_percent / 10) {
      std::printf("  ... %zu%% (%zu/%zu kernels)\n", percent, done, total);
      last_percent = percent;
    }
  };
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    if (!obs::kEnabled) {
      std::printf("--trace requires a build with IBCHOL_OBS=ON; ignoring\n");
    } else {
      obs::start_tracing();
    }
  }
  const SweepDataset dataset = run_sweep(*evaluator, opt);
  std::printf("swept %zu kernels\n\n", dataset.size());
  if (!trace_path.empty() && obs::kEnabled) {
    obs::stop_tracing();
    if (obs::export_trace(trace_path)) {
      std::printf("sweep trace written to %s\n", trace_path.c_str());
    } else {
      std::printf("failed to write sweep trace to %s\n", trace_path.c_str());
      return 1;
    }
  }

  // Winners table.
  TextTable table({"n", "GF/s", "nb", "looking", "layout", "unroll"});
  for (const auto& [n, rec] : dataset.best_by_n()) {
    table.add_row(
        {std::to_string(n), TextTable::num(rec.gflops, 1),
         std::to_string(rec.params.nb), to_string(rec.params.looking),
         rec.params.chunked ? "chunk" + std::to_string(rec.params.chunk_size)
                            : "simple",
         to_string(rec.params.unroll)});
  }
  std::printf("autotuner winners:\n%s\n", table.render().c_str());

  // Verify the winner of the largest size numerically.
  const int n = opt.sizes.back();
  const TuningParams params = select_winners(dataset).at(n);
  const std::int64_t verify_batch = 2048;
  const BatchLayout layout =
      BatchCholesky::make_layout(n, verify_batch, params);
  const BatchCholesky chol(layout, params);
  AlignedBuffer<float> data(layout.size_elems());
  generate_spd_batch<float>(layout, data.span());
  const std::vector<float> orig(data.begin(), data.end());
  if (!chol.factorize<float>(data.span()).ok()) {
    std::printf("winner kernel failed to factor!\n");
    return 1;
  }
  std::vector<float> a(n * n), l(n * n);
  double worst = 0.0;
  for (const std::int64_t b : {std::int64_t{0}, verify_batch - 1}) {
    extract_matrix<float>(layout, std::span<const float>(orig), b, a);
    extract_matrix<float>(layout, std::span<const float>(data.span()), b, l);
    worst = std::max(worst, reconstruction_error<float>(n, a, l));
  }
  std::printf("winner for n=%d verified on CPU substrate: ||A - LL^T|| / "
              "||A|| = %.2e\n", n, worst);

  if (cli.has("csv")) {
    write_csv_file(cli.get("csv", ""), dataset.to_csv());
    std::printf("dataset written to %s\n", cli.get("csv", "").c_str());
  }
  if (cli.has("table")) {
    // The deployable artifact: a size -> kernel dispatch table.
    const TunedDispatch dispatch = TunedDispatch::from_dataset(dataset);
    write_csv_file(cli.get("table", ""), dispatch.to_csv());
    std::printf("dispatch table (%zu entries) written to %s\n",
                dispatch.size(), cli.get("table", "").c_str());
  }
  return worst < 1e-4 ? 0 : 1;
}
