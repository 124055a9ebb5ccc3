// service_open: one generator thread drives a BatchService with three
// workers (3 + 1 = the reference host's 4 cores) in an open loop. Requests of
// 256 matrices mix n = 8, 16, 32 in fp32 with n = 16 in bf16 (submit_mixed).
// The run has three phases: a reference step at a fixed rate (latency), a
// closed loop that keeps the pool busy (capacity), and a geometric rate
// ladder (the highest rate that meets the latency limit). Admission, queueing,
// stealing and the mixed lane do the work here; the OpenMP facade is bypassed.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>

#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "layout/generate.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "svc/batch_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ibchol::e2e {
namespace {

constexpr std::int64_t kRequestBatch = 256;
constexpr int kWorkers = 3;
constexpr int kSlotsPerClass = 64;
constexpr double kLatencyLimitUs = 5000.0;
/// Generator lateness limit at p99, for ladder steps and (in run.py) for
/// the reference step.
constexpr double kSendWindowUs = 1000.0;
/// Bytes verified and restored per generator loop iteration (at least one
/// run), so the generator keeps polling and sending while it checks a
/// finished request.
constexpr std::size_t kReapPiece = 64 * 1024;

template <typename T>
unsigned char* raw(Buffer<T>& b) {
  return reinterpret_cast<unsigned char*>(b.data());
}

struct Slot {
  Buffer<float> f;          ///< fp32 classes
  Buffer<std::uint16_t> h;  ///< bf16 class
  std::vector<std::int32_t> info;
};

/// One request shape of the mix, with its pristine input, the oracle
/// output (synchronous factor_batch_cpu / factor_batch_cpu_mixed) and a
/// pool of working buffers.
struct ReqClass {
  ReqClass(int n_, StoragePrec prec_, int weight_, std::uint64_t seed)
      : n(n_),
        prec(prec_),
        weight(weight_),
        params(make_params(n_, prec_)),
        layout(BatchCholesky::make_layout(n_, kRequestBatch, params)),
        opts(cpu_options(params, n_, 0)) {
    const std::size_t elems = layout.size_elems();
    master = Buffer<float>(elems);
    generate_spd_batch<float>(layout, master.span(),
                              {SpdKind::kGramPlusDiagonal, seed, 100.0});
    if (bf16()) {
      pristine_h = Buffer<std::uint16_t>(elems);
      expect_h = Buffer<std::uint16_t>(elems);
      for (std::size_t i = 0; i < elems; ++i) pristine_h[i] = to_bf16(master[i]);
    } else {
      expect_f = Buffer<float>(elems);
    }
    slots.resize(kSlotsPerClass);
    for (int s = 0; s < kSlotsPerClass; ++s) {
      Slot& sl = slots[static_cast<std::size_t>(s)];
      if (bf16()) {
        sl.h = Buffer<std::uint16_t>(elems);
        std::memcpy(sl.h.data(), pristine_h.data(), bytes());
      } else {
        sl.f = Buffer<float>(elems);
        std::memcpy(sl.f.data(), master.data(), bytes());
      }
      sl.info.assign(static_cast<std::size_t>(kRequestBatch), 0);
      free_slots.push_back(s);
    }
    expect_info.assign(static_cast<std::size_t>(kRequestBatch), 0);
    // The output is each matrix's lower triangle; in a chunked layout the
    // rows j..n-1 of column j form one contiguous run per chunk.
    IBCHOL_CHECK(layout.kind() == LayoutKind::kInterleavedChunked,
                 "service requests use the chunked layout");
    const std::size_t elem = bf16() ? 2 : 4;
    for (std::int64_t b = 0; b < layout.padded_batch(); b += layout.chunk()) {
      for (int j = 0; j < n; ++j) {
        lower_runs.emplace_back(
            layout.index(b, j, j) * elem,
            static_cast<std::size_t>(n - j) *
                static_cast<std::size_t>(layout.chunk()) * elem);
      }
    }
  }

  static TuningParams make_params(int n, StoragePrec prec) {
    TuningParams p = recommended_params(n);
    p.storage = prec;
    return p;
  }

  [[nodiscard]] bool bf16() const { return prec != StoragePrec::kFp32; }
  [[nodiscard]] std::size_t bytes() const {
    return layout.size_elems() * (bf16() ? 2 : 4);
  }
  [[nodiscard]] const TileProgram* program() const {
    return chol && chol->program().has_value() ? &*chol->program() : nullptr;
  }
  [[nodiscard]] unsigned char* work(int s) {
    Slot& sl = slots[static_cast<std::size_t>(s)];
    return bf16() ? raw(sl.h) : raw(sl.f);
  }
  [[nodiscard]] unsigned char* pristine() {
    return bf16() ? raw(pristine_h) : raw(master);
  }
  [[nodiscard]] unsigned char* expected() {
    return bf16() ? raw(expect_h) : raw(expect_f);
  }

  svc::FactorFuture submit(svc::BatchService& service, int s) {
    Slot& sl = slots[static_cast<std::size_t>(s)];
    if (bf16()) {
      svc::SubmitOptions so;
      so.storage = prec;
      return service.submit_mixed(layout, sl.h.span(), opts, sl.info,
                                  program(), so);
    }
    return service.submit<float>(layout, sl.f.span(), opts, sl.info,
                                 program());
  }

  /// The synchronous driver the service is documented bit-identical to.
  FactorResult factor_sync(int s, const CpuFactorOptions& o) {
    Slot& sl = slots[static_cast<std::size_t>(s)];
    const TileProgram* prog = program();
    if (bf16()) {
      return prog != nullptr
                 ? factor_batch_cpu_mixed_with_program(layout, sl.h.span(),
                                                       prec, *prog, o, sl.info)
                 : factor_batch_cpu_mixed(layout, sl.h.span(), prec, o,
                                          sl.info);
    }
    return prog != nullptr
               ? factor_batch_cpu_with_program<float>(layout, sl.f.span(),
                                                      *prog, o, sl.info)
               : factor_batch_cpu<float>(layout, sl.f.span(), o, sl.info);
  }

  [[nodiscard]] std::string name() const {
    return "n" + std::to_string(n) + (bf16() ? ".bf16" : ".fp32");
  }

  int n;
  StoragePrec prec;
  int weight;
  TuningParams params;
  BatchLayout layout;
  CpuFactorOptions opts;
  std::optional<BatchCholesky> chol;
  Buffer<float> master;  ///< fp32 pristine input (bf16: before rounding)
  Buffer<std::uint16_t> pristine_h;
  Buffer<float> expect_f;
  Buffer<std::uint16_t> expect_h;
  std::vector<std::int32_t> expect_info;
  std::vector<Slot> slots;
  std::vector<int> free_slots;
  /// (byte offset, byte length) of the lower-triangle runs: what the
  /// factorization writes and the only part it reads, so the part checked
  /// and restored after each request.
  std::vector<std::pair<std::size_t, std::size_t>> lower_runs;
};

/// Everything measured over one open- or closed-loop phase.
struct StepStats {
  explicit StepStats(std::size_t classes)
      : latency_us(classes), run_us_by_class(classes) {}

  bool trace = false;
  std::int64_t sent = 0, missed = 0, bad = 0;
  std::vector<std::int64_t> completed_ns;  ///< terminal status observed
  std::int64_t done = 0;                   ///< completed and checked
  std::int64_t gen_busy_ns = 0;  ///< generator time in submit and checks
  std::vector<std::vector<double>> latency_us;  ///< due → done, per class
  std::vector<double> all_latency_us, submit_us, queue_us, run_us, late_us;
  std::vector<std::vector<double>> run_us_by_class;
  obs::Histogram poll_gap_ns;
  std::size_t inflight_max = 0;
  double elapsed_s = 0.0;
};

struct Request {
  int cls = 0;
  int slot = 0;
  svc::FactorFuture fut;
  std::int64_t due = 0, submit_start = 0, submit_end = 0;
  std::int64_t running_seen = -1, done_seen = -1, reap_start = -1;
  std::size_t reaped = 0;  ///< lower-triangle runs verified and restored
  bool ok = true;
};

/// The single generator thread's state: in-flight requests it polls, and
/// finished ones whose outputs it verifies and restores piece by piece.
class Generator {
 public:
  Generator(svc::BatchService& service, std::vector<ReqClass>& classes,
            Context& ctx)
      : service_(service), classes_(classes), ctx_(ctx) {}

  /// Submits a request of class `c` due at `due`. A class with no free
  /// buffer cannot send: the request misses its send window.
  void send(int c, std::int64_t due, StepStats& st) {
    ReqClass& rc = classes_[static_cast<std::size_t>(c)];
    ++ctx_.rep().attempted;
    if (rc.free_slots.empty()) {
      ++st.missed;
      return;
    }
    auto req = std::make_unique<Request>();
    req->cls = c;
    req->slot = rc.free_slots.back();
    rc.free_slots.pop_back();
    req->due = due;
    req->submit_start = now_ns();
    req->fut = rc.submit(service_, req->slot);
    req->submit_end = now_ns();
    st.gen_busy_ns += req->submit_end - req->submit_start;
    ++st.sent;
    active_.push_back(std::move(req));
    st.inflight_max = std::max(st.inflight_max, active_.size());
  }

  /// One generator loop iteration: poll every in-flight request, then
  /// verify/restore one piece of a finished one.
  void step(StepStats& st) {
    const std::int64_t now = now_ns();
    if (last_poll_ > 0) st.poll_gap_ns.record(static_cast<std::uint64_t>(now - last_poll_));
    last_poll_ = now;
    for (std::size_t i = 0; i < active_.size();) {
      Request& r = *active_[i];
      const svc::RequestStatus s = r.fut.status();
      if (s == svc::RequestStatus::kRunning && r.running_seen < 0) {
        r.running_seen = now;
      }
      if (s == svc::RequestStatus::kQueued ||
          s == svc::RequestStatus::kRunning) {
        ++i;
        continue;
      }
      r.done_seen = now;
      st.completed_ns.push_back(now);
      if (r.running_seen < 0) r.running_seen = now;
      r.ok = s == svc::RequestStatus::kDone;
      r.fut = svc::FactorFuture{};  // release: lets the service recycle it
      const double lat = static_cast<double>(r.done_seen - r.due) / 1e3;
      st.latency_us[static_cast<std::size_t>(r.cls)].push_back(lat);
      st.all_latency_us.push_back(lat);
      st.submit_us.push_back(static_cast<double>(r.submit_end - r.submit_start) / 1e3);
      st.queue_us.push_back(static_cast<double>(r.running_seen - r.submit_end) / 1e3);
      const double run = static_cast<double>(r.done_seen - r.running_seen) / 1e3;
      st.run_us.push_back(run);
      st.run_us_by_class[static_cast<std::size_t>(r.cls)].push_back(run);
      st.late_us.push_back(static_cast<double>(r.submit_start - r.due) / 1e3);
      reaping_.push_back(std::move(active_[i]));
      active_[i] = std::move(active_.back());
      active_.pop_back();
    }
    reap_piece(st);
  }

  /// Polls and reaps until nothing is in flight or awaiting its check.
  void drain(StepStats& st) {
    while (!active_.empty() || !reaping_.empty()) step(st);
  }

  [[nodiscard]] std::size_t active() const { return active_.size(); }
  [[nodiscard]] bool has_free_buffer(int c) const {
    return !classes_[static_cast<std::size_t>(c)].free_slots.empty();
  }

 private:
  void reap_piece(StepStats& st) {
    if (reaping_.empty()) return;
    Request& r = *reaping_.front();
    ReqClass& rc = classes_[static_cast<std::size_t>(r.cls)];
    const std::int64_t piece_start = now_ns();
    if (r.reap_start < 0) r.reap_start = piece_start;
    unsigned char* work = rc.work(r.slot);
    std::size_t budget = kReapPiece;
    while (r.reaped < rc.lower_runs.size() && budget > 0) {
      const auto [off, len] = rc.lower_runs[r.reaped++];
      if (!same_bytes(work + off, rc.expected() + off, len)) r.ok = false;
      std::memcpy(work + off, rc.pristine() + off, len);
      budget -= std::min(budget, len);
    }
    st.gen_busy_ns += now_ns() - piece_start;
    if (r.reaped < rc.lower_runs.size()) return;

    Slot& sl = rc.slots[static_cast<std::size_t>(r.slot)];
    if (sl.info != rc.expect_info) r.ok = false;
    std::fill(sl.info.begin(), sl.info.end(), 0);
    rc.free_slots.push_back(r.slot);
    const std::int64_t reap_end = now_ns();
    ++st.done;
    if (!r.ok) {
      ++st.bad;
      ++ctx_.rep().failed;
      ctx_.rep().fail("service output differs from the synchronous oracle, " +
                      rc.name());
    }
    if (st.trace) record_spans(r, reap_end);
    reaping_.pop_front();
  }

  void record_spans(const Request& r, std::int64_t reap_end) {
    Tracer& tr = ctx_.tr();
    const std::int64_t op = next_op_++;
    const std::int32_t root = tr.add("op", r.due, reap_end, -1, op);
    if (root < 0) return;
    tr.add("harness.gen_wait", r.due, r.submit_start, root, op);
    tr.add("svc.submit", r.submit_start, r.submit_end, root, op);
    tr.add("svc.queue", r.submit_end, r.running_seen, root, op);
    tr.add("svc.run", r.running_seen, r.done_seen, root, op);
    tr.add("harness.reap_wait", r.done_seen, r.reap_start, root, op);
    tr.add("harness.verify", r.reap_start, reap_end, root, op);
  }

  svc::BatchService& service_;
  std::vector<ReqClass>& classes_;
  Context& ctx_;
  std::vector<std::unique_ptr<Request>> active_;
  std::deque<std::unique_ptr<Request>> reaping_;
  std::int64_t last_poll_ = 0;
  std::int64_t next_op_ = 0;
};

/// Deterministic class sequence realizing the mix weights.
class ClassSequence {
 public:
  ClassSequence(const std::vector<ReqClass>& classes, std::uint64_t seed)
      : rng_(seed) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      for (int w = 0; w < classes[c].weight; ++w) {
        bag_.push_back(static_cast<int>(c));
      }
    }
  }
  int next() {
    return bag_[static_cast<std::size_t>(rng_.uniform_index(bag_.size()))];
  }

 private:
  Xoshiro256 rng_;
  std::vector<int> bag_;
};

/// Open loop: sends at `rate` for `duration_s` regardless of completions,
/// then drains. Busy-polls so sends go out on time.
void open_loop(Generator& gen, ClassSequence& seq, double rate,
               double duration_s, StepStats& st) {
  const auto interval = static_cast<std::int64_t>(1e9 / rate);
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(duration_s * 1e9);
  std::int64_t due = t0;
  while (due < end) {
    if (now_ns() >= due) {
      gen.send(seq.next(), due, st);
      due += interval;
      continue;
    }
    gen.step(st);
  }
  gen.drain(st);
  st.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
}

/// Closed loop: keeps `depth` requests in the service, each due when sent.
/// Completions observed in the window give the capacity; checking a
/// finished request overlaps the service's work on the others.
void closed_loop(Generator& gen, ClassSequence& seq, std::size_t depth,
                 double duration_s, StepStats& st) {
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(duration_s * 1e9);
  int next = seq.next();
  while (now_ns() < end) {
    while (gen.active() < depth && gen.has_free_buffer(next)) {
      gen.send(next, now_ns(), st);
      next = seq.next();
    }
    gen.step(st);
  }
  st.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
  gen.drain(st);
}

/// Median completion rate over the phase's 250 ms blocks, so a short stall
/// of the shared host moves one block, not the result.
double block_rate(const StepStats& st, std::int64_t t0, double duration_s) {
  constexpr std::int64_t kBlockNs = 250'000'000;
  const auto blocks = static_cast<std::size_t>(duration_s * 1e9 / kBlockNs);
  std::vector<double> counts(std::max<std::size_t>(blocks, 1), 0.0);
  for (const std::int64_t t : st.completed_ns) {
    const auto b = static_cast<std::size_t>((t - t0) / kBlockNs);
    if (b < counts.size()) counts[b] += 1.0;
  }
  return median(counts) * 1e9 / static_cast<double>(kBlockNs);
}

/// A ladder step passes when its p99 latency meets the limit, the
/// generator kept its send schedule (p99 lateness within kSendWindowUs; a
/// single late send is preemption on a busy host, not the program), no
/// request found its class out of buffers, and every output was correct.
bool step_passes(const StepStats& st) {
  return st.missed == 0 && st.bad == 0 && st.done > 0 &&
         percentile(st.late_us, 99.0) <= kSendWindowUs &&
         percentile(st.all_latency_us, 99.0) <= kLatencyLimitUs;
}

/// The oracle output of every class (synchronous driver on slot 0), its
/// double-precision residual check, and a restored slot 0.
void compute_oracles(std::vector<ReqClass>& classes, Report& rep) {
  for (ReqClass& rc : classes) {
    rc.chol.emplace(rc.layout, rc.params);
    // One thread: bit-identical at any thread count, and it leaves no idle
    // OpenMP team spinning on the cores the service workers need.
    const FactorResult r = rc.factor_sync(0, cpu_options(rc.params, rc.n, 1));
    Slot& sl = rc.slots[0];
    if (!r.ok()) rep.fail("oracle reported a failed factorization, " + rc.name());
    std::memcpy(rc.expected(), rc.work(0), rc.bytes());
    rc.expect_info = sl.info;
    const BatchLayout& l = rc.layout;
    double fr = 0.0;
    if (rc.bf16()) {
      // The factor of the rounded input, itself rounded to bf16.
      fr = factor_residual(
          rc.n, kRequestBatch,
          [&](std::int64_t b, int i, int j) {
            return static_cast<double>(from_bf16(rc.pristine_h[l.index(b, i, j)]));
          },
          [&](std::int64_t b, int i, int j) {
            return static_cast<double>(from_bf16(rc.expect_h[l.index(b, i, j)]));
          });
    } else {
      fr = factor_residual(
          rc.n, kRequestBatch,
          [&](std::int64_t b, int i, int j) {
            return static_cast<double>(rc.master[l.index(b, i, j)]);
          },
          [&](std::int64_t b, int i, int j) {
            return static_cast<double>(rc.expect_f[l.index(b, i, j)]);
          });
    }
    const double tol = rc.bf16() ? kBf16Tolerance : kFp32Tolerance;
    if (!(fr <= tol)) {
      rep.fail("oracle residual " + std::to_string(fr) + ", " + rc.name());
    }
    std::memcpy(rc.work(0), rc.pristine(), rc.bytes());
    std::fill(sl.info.begin(), sl.info.end(), 0);
  }
}

/// Submits one request of every class and waits: the cold call of set-up.
double cold_call(svc::BatchService& service, ReqClass& rc, Report& rep) {
  const std::int64_t t0 = now_ns();
  svc::FactorFuture f = rc.submit(service, 0);
  (void)f.wait();
  const std::int64_t t1 = now_ns();
  if (f.status() != svc::RequestStatus::kDone ||
      !same_bytes(rc.work(0), rc.expected(), rc.bytes()) ||
      rc.slots[0].info != rc.expect_info) {
    rep.fail("set-up: service output differs from the oracle, " + rc.name());
  }
  std::memcpy(rc.work(0), rc.pristine(), rc.bytes());
  std::fill(rc.slots[0].info.begin(), rc.slots[0].info.end(), 0);
  return static_cast<double>(t1 - t0) / 1e3;
}

void report_step(Report& rep, const std::string& suffix, const StepStats& st,
                 const std::vector<ReqClass>& classes) {
  for (std::size_t c = 0; c < classes.size(); ++c) {
    rep.add_timing("svc.latency_us." + classes[c].name() + suffix,
                   st.latency_us[c], "us");
  }
  rep.add_timing("svc.submit_us" + suffix, st.submit_us, "us");
  rep.add_timing("svc.queue_us" + suffix, st.queue_us, "us");
  rep.add_timing("svc.run_us" + suffix, st.run_us, "us");
  rep.add_timing("svc.gen_late_us" + suffix, st.late_us, "us");
  rep.add("svc.gen_late_p99_us" + suffix, percentile(st.late_us, 99.0), "us",
          st.late_us.size(), 99.0);
  const obs::HistogramSnapshot gaps = st.poll_gap_ns.snapshot();
  rep.add("svc.poll_gap_p99_us" + suffix, gaps.p99 / 1e3, "us", gaps.count,
          99.0);
  rep.add("svc.inflight_max" + suffix, static_cast<double>(st.inflight_max),
          "count");
  rep.add("svc.goodput_rps" + suffix,
          static_cast<double>(st.done - st.bad) / st.elapsed_s, "req/s");
  rep.add("svc.missed" + suffix, static_cast<double>(st.missed), "count");
  rep.add("svc.gen_busy_pct" + suffix,
          100.0 * static_cast<double>(st.gen_busy_ns) / (st.elapsed_s * 1e9),
          "%");
}

}  // namespace

void run_service_open(Context& ctx) {
  Report& rep = ctx.rep();
  std::vector<ReqClass> classes;
  classes.reserve(4);
  const std::uint64_t base = ctx.seed * 1000003ULL;
  classes.emplace_back(8, StoragePrec::kFp32, 2, base + 8);
  classes.emplace_back(16, StoragePrec::kFp32, 2, base + 16);
  classes.emplace_back(32, StoragePrec::kFp32, 1, base + 32);
  classes.emplace_back(16, StoragePrec::kBf16, 1, base + 116);
  compute_oracles(classes, rep);

  // Set-up, repeated: the service (its worker pool), then per class the
  // parameters, the facade object that owns the tile program, and one cold
  // request.
  SetupTimes st_setup;
  std::unique_ptr<svc::BatchService> service;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    std::int64_t t0 = now_ns();
    svc::ServiceOptions opts;
    opts.num_threads = kWorkers;
    service = std::make_unique<svc::BatchService>(opts);
    double total_us = static_cast<double>(now_ns() - t0) / 1e3;
    st_setup.construct_us.push_back(total_us);
    for (ReqClass& rc : classes) {
      t0 = now_ns();
      rc.params = ReqClass::make_params(rc.n, rc.prec);
      rc.opts = cpu_options(rc.params, rc.n, 0);
      const double params_us = static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      rc.chol.emplace(rc.layout, rc.params);
      const double construct_us = static_cast<double>(now_ns() - t0) / 1e3;
      const double cold_us = cold_call(*service, rc, rep);
      st_setup.params_us.push_back(params_us);
      st_setup.construct_us.push_back(construct_us);
      st_setup.cold_us.push_back(cold_us);
      total_us += params_us + construct_us + cold_us;
    }
    st_setup.total_s.push_back(total_us / 1e6);
  }
  st_setup.report(rep);

  Generator gen(*service, classes, ctx);
  ClassSequence seq(classes, ctx.seed);
  const double s = ctx.seconds;
  const double ref_rate = ctx.smoke ? 1000.0 : 5000.0;

  // Reference step: latency at a fixed rate well below capacity.
  obs::reset_histograms();
  const std::uint64_t steals0 = obs::counter_value("svc.steals");
  StepStats ref(classes.size());
  ref.trace = ctx.traced();
  open_loop(gen, seq, ref_rate, 0.45 * s, ref);
  const double steals =
      static_cast<double>(obs::counter_value("svc.steals") - steals0);
  const obs::HistogramSnapshot queue_ns =
      obs::histogram("svc.queue_ns").snapshot();
  if (ref.missed > 0) {
    rep.failed += ref.missed;
    rep.fail("reference step: " + std::to_string(ref.missed) +
             " requests found no free buffer");
  }

  // Capacity: two requests per worker kept in flight.
  StepStats cap(classes.size());
  const std::int64_t cap_start = now_ns();
  closed_loop(gen, seq, 2 * kWorkers, 0.35 * s, cap);
  const double capacity_rps = block_rate(cap, cap_start, 0.35 * s);

  // Ladder: x1.25 per step until a step fails or the budget is spent.
  // One late burst fails a step on a shared host, so max_rate_rps is a
  // detail metric, not an end-to-end one.
  const double step_s = ctx.smoke ? 0.05 : 0.25;
  double rate = ctx.smoke ? 2000.0 : 10000.0;
  double max_rate = 0.0;
  std::unique_ptr<StepStats> best;
  int steps = 0;
  for (double left = 0.2 * s; left >= step_s; left -= step_s, rate *= 1.25) {
    auto step = std::make_unique<StepStats>(classes.size());
    open_loop(gen, seq, rate, step_s, *step);
    ++steps;
    if (!step_passes(*step)) break;
    max_rate = rate;
    best = std::move(step);
  }

  // One-thread synchronous baselines, after every timed phase.
  std::vector<double> call, call_1t, flops;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    ReqClass& rc = classes[c];
    call.push_back(median(ref.run_us_by_class[c]));
    flops.push_back(static_cast<double>(kRequestBatch) * factor_flops(rc.n));
    if (!ctx.traced()) continue;
    const CpuFactorOptions one = cpu_options(rc.params, rc.n, 1);
    bool ok = true;
    std::vector<double> us;
    for (int r = 0; r < (ctx.smoke ? 3 : 50); ++r) {
      const std::int64_t t0 = now_ns();
      (void)rc.factor_sync(0, one);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      ok = ok && same_bytes(rc.work(0), rc.expected(), rc.bytes()) &&
           rc.slots[0].info == rc.expect_info;
      std::memcpy(rc.work(0), rc.pristine(), rc.bytes());
    }
    if (!ok) rep.fail("one-thread oracle output differs, " + rc.name());
    call_1t.push_back(median(us));
    rep.add_timing("cpu.factor_1t_us." + rc.name(), us, "us");
  }

  std::vector<double> p50s;
  for (const auto& lat : ref.latency_us) p50s.push_back(median(lat));
  rep.add("latency_p50_us", geomean(p50s), "us");
  rep.add("systems_per_s", capacity_rps * kRequestBatch, "1/s");
  rep.add("svc.capacity_rps", capacity_rps, "req/s");
  rep.add("svc.gen_busy_pct.capacity",
          100.0 * static_cast<double>(cap.gen_busy_ns) / (cap.elapsed_s * 1e9),
          "%");
  report_step(rep, ".ref", ref, classes);
  rep.add("obs.svc.steals_per_req",
          steals / static_cast<double>(std::max<std::int64_t>(ref.sent, 1)),
          "ratio");
  rep.add("obs.svc.queue_ns_p99", queue_ns.p99, "ns", queue_ns.count, 99.0);
  rep.add("max_rate_rps", max_rate, "req/s");
  rep.add("svc.ladder_steps", steps, "count");
  if (best) report_step(rep, ".max", *best, classes);
  report_runtime(rep, call, call_1t, flops);
}

}  // namespace ibchol::e2e
