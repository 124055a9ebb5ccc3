// Tests for BatchService: bit-identity with the synchronous drivers across
// layouts and dtypes, concurrent submission, cancellation, drain-on-
// teardown, the zero-steady-state-allocation property, screening against
// synchronous recovery, per-precision latency lanes, and the facade's
// independence from the service outside its tiled route.
//
// Pipeline units are schedule-agnostic (each unit factors a disjoint lane
// range through the same kernels in the same order), so the service must
// reproduce the OpenMP path bit for bit — every comparison here is
// memcmp-exact, not tolerance-based.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/recover.hpp"
#include "cpu/simd/convert.hpp"
#include "layout/generate.hpp"
#include "layout/layout.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "svc/batch_service.hpp"
#include "util/aligned_buffer.hpp"

namespace ibchol::svc {
namespace {

template <typename T>
struct Workload {
  BatchLayout layout;
  AlignedBuffer<T> data;
  std::vector<std::int32_t> info;

  explicit Workload(const BatchLayout& l, std::uint64_t seed = 42)
      : layout(l),
        data(l.size_elems()),
        info(static_cast<std::size_t>(l.batch()), -7) {
    generate_spd_batch<T>(layout, data.span(),
                          {SpdKind::kGramPlusDiagonal, seed, 50.0});
  }

  Workload clone() const {
    Workload copy(layout, Uninit{});
    std::memcpy(copy.data.span().data(), data.span().data(),
                data.span().size() * sizeof(T));
    copy.info = info;
    return copy;
  }

 private:
  struct Uninit {};
  Workload(const BatchLayout& l, Uninit)
      : layout(l), data(l.size_elems()),
        info(static_cast<std::size_t>(l.batch()), -7) {}
};

template <typename T>
void expect_identical(const Workload<T>& a, const Workload<T>& b) {
  ASSERT_EQ(a.data.span().size(), b.data.span().size());
  EXPECT_EQ(std::memcmp(a.data.span().data(), b.data.span().data(),
                        a.data.span().size() * sizeof(T)),
            0);
  EXPECT_EQ(a.info, b.info);
}

template <typename T>
void check_bit_identity(const BatchLayout& layout,
                        const CpuFactorOptions& options) {
  Workload<T> reference(layout);
  Workload<T> serviced = reference.clone();
  // A couple of failing matrices exercise info/FactorResult merging.
  poison_matrix<T>(reference.layout, reference.data.span(), 3, 2);
  poison_matrix<T>(serviced.layout, serviced.data.span(), 3, 2);
  const std::int64_t last = layout.batch() - 1;
  poison_matrix<T>(reference.layout, reference.data.span(), last, 1);
  poison_matrix<T>(serviced.layout, serviced.data.span(), last, 1);

  const FactorResult want = factor_batch_cpu<T>(
      reference.layout, reference.data.span(), options, reference.info);

  BatchService service({.num_threads = 4, .steal_grain = 1});
  const FactorResult got = service.factor<T>(
      serviced.layout, serviced.data.span(), options, serviced.info);

  EXPECT_EQ(got.failed_count, want.failed_count);
  EXPECT_EQ(got.first_failed, want.first_failed);
  expect_identical(reference, serviced);
}

TEST(BatchService, BitIdenticalInterleavedFloat) {
  check_bit_identity<float>(BatchLayout::interleaved(16, 300), {});
}

TEST(BatchService, BitIdenticalInterleavedDouble) {
  check_bit_identity<double>(BatchLayout::interleaved(24, 300), {});
}

TEST(BatchService, BitIdenticalChunkedFloat) {
  check_bit_identity<float>(BatchLayout::interleaved_chunked(16, 300, 64),
                            {});
}

TEST(BatchService, BitIdenticalChunkedDouble) {
  CpuFactorOptions options;
  options.nb = 6;
  options.looking = Looking::kLeft;
  check_bit_identity<double>(BatchLayout::interleaved_chunked(20, 500, 64),
                             options);
}

TEST(BatchService, BitIdenticalCanonical) {
  check_bit_identity<double>(BatchLayout::canonical(16, 150), {});
  check_bit_identity<float>(BatchLayout::canonical(8, 40), {});
}

TEST(BatchService, BitIdenticalCanonicalUpper) {
  CpuFactorOptions options;
  options.triangle = Triangle::kUpper;
  check_bit_identity<double>(BatchLayout::canonical(12, 100), options);
}

TEST(BatchService, BitIdenticalFullUnroll) {
  CpuFactorOptions options;
  options.unroll = Unroll::kFull;
  check_bit_identity<float>(BatchLayout::interleaved(8, 200), options);
}

TEST(BatchService, SingleWorkerMatchesToo) {
  const BatchLayout layout = BatchLayout::interleaved(16, 200);
  Workload<float> reference(layout);
  Workload<float> serviced = reference.clone();
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), {}, reference.info);
  BatchService service({.num_threads = 1});
  const FactorResult got =
      service.factor<float>(layout, serviced.data.span(), {}, serviced.info);
  EXPECT_EQ(got.failed_count, want.failed_count);
  expect_identical(reference, serviced);
}

// Many client threads hammer one service; every request's result must
// match its own synchronous reference.
TEST(BatchService, ConcurrentSubmissionStress) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  BatchService service({.num_threads = 3, .max_inflight = 8});

  const BatchLayout layouts[] = {
      BatchLayout::interleaved(8, 200),
      BatchLayout::interleaved_chunked(16, 300, 64),
      BatchLayout::canonical(12, 64),
  };

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const BatchLayout& layout = layouts[(c + i) % 3];
        const std::uint64_t seed = 100 + static_cast<std::uint64_t>(c) * 31 +
                                   static_cast<std::uint64_t>(i);
        Workload<float> reference(layout, seed);
        Workload<float> serviced = reference.clone();
        const FactorResult want = factor_batch_cpu<float>(
            layout, reference.data.span(), {}, reference.info);
        const FactorResult got = service.factor<float>(
            layout, serviced.data.span(), {}, serviced.info);
        if (got.failed_count != want.failed_count ||
            serviced.info != reference.info ||
            std::memcmp(serviced.data.span().data(),
                        reference.data.span().data(),
                        reference.data.span().size() * sizeof(float)) != 0) {
          failures[c] = "mismatch at client " + std::to_string(c) +
                        " request " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

// Pipelined submission: several requests in flight on one service at once
// through the async API, each verified afterwards. Note max_inflight must
// cover futures being *held*: a slot recycles only once its request
// completed and its future was released.
TEST(BatchService, AsyncSubmitManyThenWait) {
  constexpr int kRequests = 10;
  BatchService service({.num_threads = 2, .max_inflight = 16});
  const BatchLayout layout = BatchLayout::interleaved(16, 300);

  Workload<double> reference(layout, 7);
  const FactorResult want = factor_batch_cpu<double>(
      layout, reference.data.span(), {}, reference.info);

  std::vector<Workload<double>> batches;
  batches.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    batches.push_back(Workload<double>(layout, 7).clone());
  }
  std::vector<FactorFuture> futures;
  futures.reserve(kRequests);
  for (auto& b : batches) {
    futures.push_back(
        service.submit<double>(layout, b.data.span(), {}, b.info));
  }
  for (int i = 0; i < kRequests; ++i) {
    const FactorResult got = futures[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(got.failed_count, want.failed_count);
    expect_identical(reference, batches[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchService, CancelQueuedRequestLeavesDataUntouched) {
  // One worker, kept busy by a big request, so the second stays queued.
  BatchService service({.num_threads = 1});
  const BatchLayout big = BatchLayout::interleaved(32, 64 * 200);
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> big_w(big);
  Workload<float> small_w(small);
  std::vector<float> small_before(small_w.data.span().begin(),
                                  small_w.data.span().end());

  FactorFuture f_big =
      service.submit<float>(big, big_w.data.span(), {}, big_w.info);
  FactorFuture f_small =
      service.submit<float>(small, small_w.data.span(), {}, small_w.info);

  if (f_small.try_cancel()) {
    EXPECT_EQ(f_small.status(), RequestStatus::kCancelled);
    const FactorResult r = f_small.wait();  // returns immediately
    EXPECT_EQ(r.failed_count, 0);
    // Data untouched.
    EXPECT_EQ(std::memcmp(small_w.data.span().data(), small_before.data(),
                          small_before.size() * sizeof(float)),
              0);
    // Cancel is not idempotent-true: the request is no longer queued.
    EXPECT_FALSE(f_small.try_cancel());
  } else {
    // The worker raced us and claimed it first: it must then complete.
    const FactorResult r = f_small.wait();
    EXPECT_EQ(r.failed_count, 0);
    EXPECT_EQ(f_small.status(), RequestStatus::kDone);
  }
  EXPECT_EQ(f_big.wait().failed_count, 0);
  // A finished request can never be cancelled.
  EXPECT_FALSE(f_big.try_cancel());
}

TEST(BatchService, TeardownDrainsInFlightRequests) {
  const BatchLayout layout = BatchLayout::interleaved(16, 300);
  Workload<float> reference(layout);
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), {}, reference.info);

  constexpr int kRequests = 6;
  std::vector<Workload<float>> batches;
  for (int i = 0; i < kRequests; ++i) {
    batches.push_back(Workload<float>(layout).clone());
  }
  std::vector<FactorFuture> futures;
  {
    BatchService service({.num_threads = 2});
    for (auto& b : batches) {
      futures.push_back(
          service.submit<float>(layout, b.data.span(), {}, b.info));
    }
  }  // destructor: drains every accepted request, then joins the pool
  for (int i = 0; i < kRequests; ++i) {
    // Futures outlive the service and already hold the results.
    const FactorResult got = futures[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(got.failed_count, want.failed_count);
    expect_identical(reference, batches[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchService, DroppedFutureStillCompletesAndRecyclesSlot) {
  const BatchLayout layout = BatchLayout::interleaved(8, 128);
  // Batches are declared before the service: dropping a future is
  // fire-and-forget, so the data must stay alive until the service (whose
  // destructor drains) is gone.
  std::vector<Workload<float>> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(Workload<float>(layout).clone());
  }
  BatchService service({.num_threads = 2, .max_inflight = 2});
  for (auto& b : batches) {
    // 8 requests through 2 slots: recycling must work with the future
    // dropped immediately (fire-and-forget).
    FactorFuture f = service.submit<float>(layout, b.data.span(), {}, b.info);
  }
  // Destructor drains whatever is still running.
}

// Destruction racing pending cancels: clients submit and cancel while the
// service is being torn down. The destructor must complete every accepted
// request (run or cancelled), join cleanly, and leave every future
// terminal — repeated many times to give the races room to interleave.
TEST(BatchService, SubmitCancelDestroyRaceLoop) {
  const BatchLayout layout = BatchLayout::interleaved(8, 128);
  constexpr int kIters = 25;
  constexpr int kRequests = 6;
  std::vector<Workload<float>> batches;
  for (int i = 0; i < kRequests; ++i) {
    batches.push_back(Workload<float>(layout).clone());
  }
  for (int iter = 0; iter < kIters; ++iter) {
    // Completed iterations leave factors behind; restore SPD inputs.
    for (auto& b : batches) {
      generate_spd_batch<float>(layout, b.data.span(),
                                {SpdKind::kGramPlusDiagonal, 42, 50.0});
    }
    std::vector<FactorFuture> futures;
    futures.reserve(kRequests);
    std::thread canceller;
    {
      // Slots must cover the held futures (kBlock would wait on them).
      BatchService service({.num_threads = 2, .max_inflight = kRequests});
      for (auto& b : batches) {
        futures.push_back(
            service.submit<float>(layout, b.data.span(), {}, b.info));
      }
      // Cancel half of them concurrently with teardown: the destructor
      // runs while cancels are still landing (futures share ownership of
      // the slot pool, so cancelling a dying service is legal).
      canceller = std::thread([&] {
        for (int i = 0; i < kRequests; i += 2) {
          (void)futures[static_cast<std::size_t>(i)].try_cancel();
        }
      });
    }  // ~BatchService drains: no hang, no leak, no double-complete
    canceller.join();
    for (auto& f : futures) {
      const FactorResult r = f.wait();  // must not block after teardown
      const RequestStatus st = f.status();
      EXPECT_TRUE(st == RequestStatus::kDone ||
                  st == RequestStatus::kCancelled)
          << "status " << static_cast<int>(st) << " at iter " << iter;
      if (st == RequestStatus::kDone) EXPECT_EQ(r.failed_count, 0);
    }
  }
}

TEST(BatchService, SteadyStateHeapAllocationsAreZero) {
  // One worker: the split/lease pattern is deterministic, so the warm-up
  // provably reaches the steady-state working set. An explicit chunk_size
  // on a simple interleaved layout forces the packed (double-buffered)
  // path — the heaviest arena user.
  BatchService service({.num_threads = 1});
  const BatchLayout layout = BatchLayout::interleaved(16, 500);
  CpuFactorOptions options;
  options.chunk_size = 64;
  Workload<float> w(layout);
  for (int i = 0; i < 3; ++i) {
    (void)service.factor<float>(layout, w.data.span(), options, w.info);
    generate_spd_batch<float>(layout, w.data.span(),
                              {SpdKind::kGramPlusDiagonal, 42, 50.0});
  }
  const ArenaStats warm = service.arena_stats();
  EXPECT_GT(warm.acquires, 0u);  // the workload really exercises the arena
  for (int i = 0; i < 20; ++i) {
    (void)service.factor<float>(layout, w.data.span(), options, w.info);
    generate_spd_batch<float>(layout, w.data.span(),
                              {SpdKind::kGramPlusDiagonal, 42, 50.0});
  }
  const ArenaStats steady = service.arena_stats();
  // The acceptance hook: zero scratch allocations once warm.
  EXPECT_EQ(steady.upstream_allocs, warm.upstream_allocs);
  EXPECT_GT(steady.reuses, warm.reuses);
  EXPECT_EQ(steady.live_leases, 0u);
}

// Multi-worker variant: the lease high-water mark is bounded by
// workers × (2 pack + 1 wm) regardless of how many requests run, so
// upstream allocations must go flat after a generous warm-up.
TEST(BatchService, MultiWorkerArenaWorkingSetIsBounded) {
  BatchService service({.num_threads = 3});
  const BatchLayout layout = BatchLayout::interleaved(16, 500);
  CpuFactorOptions options;
  options.chunk_size = 64;
  Workload<float> w(layout);
  for (int i = 0; i < 20; ++i) {
    (void)service.factor<float>(layout, w.data.span(), options, w.info);
  }
  const ArenaStats stats = service.arena_stats();
  EXPECT_EQ(stats.live_leases, 0u);
  // 3 workers × 2 pack buffers, one size class: never more than 6 blocks.
  EXPECT_LE(stats.upstream_allocs, 6u);
  EXPECT_GT(stats.reuses, 0u);
}

// The service's screened path (SubmitOptions::screen) against synchronous
// recovery with retries off: the same info codes, the same non-finite
// count, and the same factored triangle in every matrix the screen did not
// flag. (Recovery hands a flagged matrix back as supplied; the quarantine
// leaves whatever the factorization made of it.)
TEST(BatchService, RecoverMatchesSynchronousRecovery) {
  const BatchLayout layout = BatchLayout::interleaved(12, 200);
  Workload<double> reference(layout);
  // Mix of failure modes: non-SPD (recoverable by shifting) and NaN.
  const std::int64_t nonspd = 5, poisoned = 9;
  poison_matrix<double>(reference.layout, reference.data.span(), nonspd, 3);
  reference.data.span()[layout.index(poisoned, 2, 1)] =
      std::numeric_limits<double>::quiet_NaN();
  reference.data.span()[layout.index(poisoned, 1, 2)] =
      std::numeric_limits<double>::quiet_NaN();
  Workload<double> serviced = reference.clone();

  RecoveryOptions recovery;
  recovery.max_attempts = 0;
  const RecoveryReport want = factor_batch_recover<double>(
      layout, reference.data.span(), {}, recovery, reference.info);

  BatchService service({.num_threads = 2});
  SubmitOptions screened;
  screened.screen = true;
  FactorFuture f = service.submit<double>(layout, serviced.data.span(), {},
                                          serviced.info, nullptr, screened);
  (void)f.wait();
  EXPECT_EQ(f.status(), RequestStatus::kPoisoned);
  const RecoveryReport got = f.recovery_report();

  EXPECT_EQ(got.nonfinite, want.nonfinite);
  EXPECT_EQ(serviced.info, reference.info);
  EXPECT_EQ(serviced.info[poisoned], kInfoNonFinite);
  EXPECT_GT(serviced.info[nonspd], 0);
  for (std::int64_t b = 0; b < layout.batch(); ++b) {
    if (b == poisoned) continue;
    for (int j = 0; j < layout.n(); ++j) {
      for (int i = j; i < layout.n(); ++i) {
        const std::size_t at = layout.index(b, i, j);
        ASSERT_EQ(std::memcmp(&serviced.data[at], &reference.data[at],
                              sizeof(double)),
                  0)
            << "matrix " << b << " element (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BatchService, GlobalServiceIsSingletonAndUsable) {
  BatchService& a = BatchService::global();
  BatchService& b = BatchService::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.threads(), 1);
  const BatchLayout layout = BatchLayout::interleaved(8, 64);
  Workload<float> w(layout);
  EXPECT_EQ(a.factor<float>(layout, w.data.span(), {}, w.info).failed_count,
            0);
}

// Every completed request lands in the svc.request_ns.<lane> histogram of
// its precision, whichever entry point and mode carried it.
TEST(BatchService, RequestLatencyRecordedInPrecisionLane) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (IBCHOL_OBS=OFF)";
  }
  BatchService service({.num_threads = 2});
  const BatchLayout layout = BatchLayout::interleaved(8, 64);
  Workload<float> f32(layout);
  Workload<double> f64(layout);
  Workload<float> canon(BatchLayout::canonical(8, 64));
  Workload<float> tiled_f32(layout);
  Workload<double> tiled_f64(layout);
  AlignedBuffer<std::uint16_t> bf16(layout.size_elems());
  AlignedBuffer<std::uint16_t> fp16(layout.size_elems());
  const auto elems = static_cast<std::int64_t>(layout.size_elems());
  narrow_row(resolve_convert_isa(), StoragePrec::kBf16, f32.data.data(),
             bf16.data(), elems, false);
  narrow_row(resolve_convert_isa(), StoragePrec::kFp16, f32.data.data(),
             fp16.data(), elems, false);
  SubmitOptions as_bf16;
  as_bf16.storage = StoragePrec::kBf16;
  SubmitOptions as_fp16;
  as_fp16.storage = StoragePrec::kFp16;

  struct Case {
    const char* mode;
    std::string_view lane;
    std::function<FactorFuture()> submit;
  };
  const Case cases[] = {
      {"fp32 chunk", "fp32",
       [&] { return service.submit<float>(layout, f32.data.span(), {}); }},
      {"fp64 chunk", "fp64",
       [&] { return service.submit<double>(layout, f64.data.span(), {}); }},
      {"fp32 canonical", "fp32",
       [&] {
         return service.submit<float>(canon.layout, canon.data.span(), {});
       }},
      {"bf16 chunk", "bf16",
       [&] {
         return service.submit_mixed(layout, bf16.span(), {}, {}, nullptr,
                                     as_bf16);
       }},
      {"fp16 chunk", "fp16",
       [&] {
         return service.submit_mixed(layout, fp16.span(), {}, {}, nullptr,
                                     as_fp16);
       }},
      {"fp32 tiled", "fp32",
       [&] {
         return service.submit_tiled<float>(layout, tiled_f32.data.span());
       }},
      {"fp64 tiled", "fp64",
       [&] {
         return service.submit_tiled<double>(layout, tiled_f64.data.span());
       }},
  };
  const std::string_view lanes[] = {"fp32", "fp64", "bf16", "fp16"};
  const auto counts = [&] {
    std::vector<std::uint64_t> c;
    for (const std::string_view lane : lanes) {
      c.push_back(obs::histogram("svc.request_ns." + std::string(lane))
                      .snapshot()
                      .count);
    }
    return c;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.mode);
    const std::vector<std::uint64_t> before = counts();
    FactorFuture f = c.submit();
    (void)f.wait();
    EXPECT_EQ(f.status(), RequestStatus::kDone);
    const std::vector<std::uint64_t> after = counts();
    for (std::size_t i = 0; i < std::size(lanes); ++i) {
      EXPECT_EQ(after[i] - before[i], lanes[i] == c.lane ? 1u : 0u)
          << "lane " << lanes[i];
    }
  }
}

// The facade runs one route per configuration and no environment variable
// reroutes it: with the retired IBCHOL_SERVICE=1 switch set, a small-n
// factorize still runs the synchronous driver (no service submission) and
// matches it bit for bit.
TEST(BatchService, FacadeIgnoresServiceEnvFlag) {
  setenv("IBCHOL_SERVICE", "1", 1);
  const int n = 16;
  const std::int64_t batch = 300;
  const TuningParams params = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, batch, params);
  Workload<float> reference(layout);
  Workload<float> serviced = reference.clone();

  const BatchCholesky chol(layout, params);
  const std::uint64_t submitted = obs::counter_value("svc.submitted");
  const FactorResult got =
      chol.factorize<float>(serviced.data.span(), serviced.info);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::counter_value("svc.submitted"), submitted);
  }

  unsetenv("IBCHOL_SERVICE");
  const CpuFactorOptions opts = [&] {
    CpuFactorOptions o;
    o.nb = params.effective_nb(n);
    o.looking = params.looking;
    o.unroll = params.unroll;
    o.math = params.math;
    o.exec = params.exec;
    o.chunk_size = 0;
    return o;
  }();
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), opts, reference.info);
  EXPECT_EQ(got.failed_count, want.failed_count);
  expect_identical(reference, serviced);
}

}  // namespace
}  // namespace ibchol::svc
