// The parallel sweep engine's contract: fanning the (mix, kind, iq) grid
// out across a thread pool changes wall-clock time and *nothing else*.
// These tests pin that contract from four sides — the pool itself, the
// single-flight BaselineCache, end-to-end parallel-equals-serial
// determinism of run_sweep across several seeds, and every cell of a sweep
// (which replays its group's shared streams) against a standalone run.
//
// Double comparisons here deliberately use EXPECT_EQ, not EXPECT_DOUBLE_EQ:
// the guarantee is bit-identical results, not results within a few ULPs.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/config_build.hpp"
#include "sim/experiment.hpp"

namespace msim::sim {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker => tasks queue up behind each other
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destruction must run the backlog before joining
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_parallelism(), 1u);
}

// ---------------------------------------------------------------------------
// BaselineCache single-flight concurrency
// ---------------------------------------------------------------------------

RunConfig tiny_base() {
  RunConfig cfg;
  cfg.warmup = 1000;
  cfg.horizon = 4000;
  return cfg;
}

TEST(BaselineCacheConcurrency, OverlappingKeysSimulateExactlyOnce) {
  BaselineCache cache(tiny_base());
  struct Key {
    const char* benchmark;
    std::uint32_t iq;
  };
  const std::vector<Key> keys{{"gzip", 32}, {"gzip", 64}, {"gcc", 32}, {"eon", 64}};

  constexpr unsigned kThreads = 8;
  std::vector<std::vector<double>> observed(kThreads,
                                            std::vector<double>(keys.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the keys starting at a different offset, so every
      // key sees racing first-requesters across runs of this test.
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const Key& k = keys[(i + t) % keys.size()];
        observed[t][(i + t) % keys.size()] = cache.alone_ipc(k.benchmark, k.iq);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Single-flight: racing requesters blocked on the winner instead of
  // re-simulating, so exactly one computation per distinct key.
  EXPECT_EQ(cache.computations(), keys.size());
  EXPECT_EQ(cache.entries(), keys.size());
  for (unsigned t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(observed[t][i], observed[0][i])
          << "thread " << t << " saw a different IPC for key " << i;
    }
  }
}

TEST(BaselineCacheConcurrency, RepeatRequestsNeverRecompute) {
  BaselineCache cache(tiny_base());
  const double first = cache.alone_ipc("gzip", 64);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cache.alone_ipc("gzip", 64), first);
  }
  EXPECT_EQ(cache.computations(), 1u);
}

// ---------------------------------------------------------------------------
// Parallel-equals-serial determinism of run_sweep
// ---------------------------------------------------------------------------

SweepRequest small_request(std::uint64_t seed) {
  SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32, 64};
  req.base = tiny_base();
  req.base.seed = seed;
  return req;
}

void expect_bit_identical(const std::vector<SweepCell>& serial,
                          const std::vector<SweepCell>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const SweepCell& a = serial[c];
    const SweepCell& b = parallel[c];
    SCOPED_TRACE("cell " + std::to_string(c));
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.iq_entries, b.iq_entries);
    EXPECT_EQ(a.hmean_ipc, b.hmean_ipc);
    EXPECT_EQ(a.hmean_fairness, b.hmean_fairness);
    EXPECT_EQ(a.ipc_speedup_vs_trad, b.ipc_speedup_vs_trad);
    EXPECT_EQ(a.fairness_gain_vs_trad, b.fairness_gain_vs_trad);
    EXPECT_EQ(a.mean_all_stall_fraction, b.mean_all_stall_fraction);
    EXPECT_EQ(a.mean_iq_residency, b.mean_iq_residency);
    ASSERT_EQ(a.mixes.size(), b.mixes.size());
    for (std::size_t m = 0; m < a.mixes.size(); ++m) {
      SCOPED_TRACE("mix " + a.mixes[m].mix_name);
      EXPECT_EQ(a.mixes[m].mix_name, b.mixes[m].mix_name);
      EXPECT_EQ(a.mixes[m].throughput_ipc, b.mixes[m].throughput_ipc);
      EXPECT_EQ(a.mixes[m].fairness, b.mixes[m].fairness);
      EXPECT_EQ(a.mixes[m].raw.cycles, b.mixes[m].raw.cycles);
      EXPECT_EQ(a.mixes[m].raw.per_thread_ipc, b.mixes[m].raw.per_thread_ipc);
      EXPECT_EQ(a.mixes[m].raw.per_thread_committed,
                b.mixes[m].raw.per_thread_committed);
    }
  }
}

TEST(ParallelSweep, BitIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 20260806u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    SweepRequest serial_req = small_request(seed);
    serial_req.jobs = 1;
    BaselineCache serial_cache(serial_req.base);
    const auto serial = run_sweep(serial_req, serial_cache);

    SweepRequest parallel_req = small_request(seed);
    parallel_req.jobs = 4;
    BaselineCache parallel_cache(parallel_req.base);
    const auto parallel = run_sweep(parallel_req, parallel_cache);

    expect_bit_identical(serial, parallel);

    // The caches converged on identical contents: same keys, same IPCs,
    // in the same deterministic (benchmark, iq) order.
    EXPECT_EQ(serial_cache.snapshot(), parallel_cache.snapshot());
  }
}

TEST(ParallelSweep, JobCountBeyondGridSizeIsHarmless) {
  SweepRequest req = small_request(3);
  req.kinds = {core::SchedulerKind::kTwoOpBlock};
  req.iq_sizes = {32};
  req.jobs = 32;  // far more workers than the 12-cell grid
  BaselineCache cache(req.base);
  const auto cells = run_sweep(req, cache);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].mixes.size(), 12u);
  EXPECT_GT(cells[0].hmean_ipc, 0.0);
}

TEST(ParallelSweep, ProgressFiresOncePerMixWhenParallel) {
  SweepRequest req = small_request(1);
  req.kinds = {core::SchedulerKind::kTraditional};
  req.iq_sizes = {32};
  req.jobs = 4;
  std::atomic<unsigned> calls{0};
  req.progress = [&calls](std::string_view) { ++calls; };
  BaselineCache cache(req.base);
  (void)run_sweep(req, cache);
  EXPECT_EQ(calls.load(), 12u);  // one per mix, regardless of worker count
}

// ---------------------------------------------------------------------------
// Shared streams: every sweep cell equals a standalone run
// ---------------------------------------------------------------------------
//
// A sweep's cells replay their (mix, IQ) group's shared streams, while a
// standalone run_simulation generates its own.  A replay bug would make
// two sweeps agree with each other, so these tests compare each cell with
// an independent run of its configuration instead, on every backend.

/// Every statistic of a run, in one comparable byte string.
std::vector<std::uint8_t> stats_bytes(RunResult r) {
  persist::Archive ar = persist::Archive::saver();
  ar.io(r.cycles);
  ar.io(r.per_thread_ipc);
  ar.io(r.per_thread_committed);
  ar.io(r.throughput_ipc);
  ar.io(r.commit_digest);
  core::io_dispatch_stats(ar, r.dispatch);
  core::io_iq_stats(ar, r.iq);
  ar.io(r.iq_mean_occupancy);
  mem::io_cache_stats(ar, r.memory.l1i);
  mem::io_cache_stats(ar, r.memory.l1d);
  mem::io_cache_stats(ar, r.memory.l2);
  ar.io(r.memory.memory_accesses);
  ar.io(r.bpred.branches);
  ar.io(r.bpred.mispredicts);
  smt::io_pipeline_stats(ar, r.pipeline);
  ar.io(r.truncated);
  return ar.bytes();
}

/// Runs the 2T grid (four kinds x two IQ sizes) built from `knobs` on the
/// thread backend at jobs=1 and jobs=3 and on the process backend, and
/// checks every cell against run_simulation of its config and derived seed.
void expect_cells_match_standalone_runs(const std::string& knobs, bool shared = true) {
  KvConfig kv;
  kv.set("sweep", "2");
  kv.set("warmup", "1000");
  kv.set("horizon", "5000");
  for (const std::string& knob : split_csv(knobs)) {
    if (knob.empty()) continue;
    const std::size_t eq = knob.find('=');
    kv.set(knob.substr(0, eq), knob.substr(eq + 1));
  }
  const BuiltRun built = build_run_config(kv);  // owns the fault injector
  SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
               core::SchedulerKind::kTwoOpBlockOoo,
               core::SchedulerKind::kTwoOpBlockOooFiltered};
  req.iq_sizes = {16, 48};
  req.base = built.config;
  ASSERT_EQ(shares_streams(req), shared);

  std::map<std::string, std::vector<std::uint8_t>> want;  // by cell key
  auto key = [](const SweepCell& cell, const MixResult& m) {
    return std::string(core::scheduler_kind_name(cell.kind)) + " iq=" +
           std::to_string(cell.iq_entries) + " " + m.mix_name;
  };
  for (const trace::WorkloadMix& mix : trace::mixes_for(2)) {
    for (const core::SchedulerKind kind : req.kinds) {
      for (const std::uint32_t iq : req.iq_sizes) {
        RunConfig cfg = req.base;
        cfg.benchmarks.assign(mix.threads().begin(), mix.threads().end());
        cfg.kind = kind;
        cfg.iq_entries = iq;
        cfg.seed = derive_stream_seed(req.base.seed, "mix:" + std::string(mix.name), iq);
        want[std::string(core::scheduler_kind_name(kind)) + " iq=" +
             std::to_string(iq) + " " + std::string(mix.name)] =
            stats_bytes(run_simulation(cfg));
      }
    }
  }

  auto check = [&](SweepRequest backend, const std::string& label) {
    SCOPED_TRACE(knobs + " on " + label);
    BaselineCache baselines(backend.base);
    const std::vector<SweepCell> cells = run_sweep(backend, baselines);
    ASSERT_EQ(cells.size(), 8u);
    std::size_t checked = 0;
    for (const SweepCell& cell : cells) {
      for (const MixResult& m : cell.mixes) {
        SCOPED_TRACE(key(cell, m));
        ASSERT_TRUE(m.ok) << m.error;
        EXPECT_TRUE(m.raw.metrics.empty());
        EXPECT_EQ(stats_bytes(m.raw), want.at(key(cell, m)));
        ++checked;
      }
    }
    EXPECT_EQ(checked, want.size());
  };
  SweepRequest serial = req;
  serial.jobs = 1;
  check(serial, "jobs=1");
  SweepRequest pooled = req;
  pooled.jobs = 3;
  check(pooled, "jobs=3");
#if !defined(__SANITIZE_THREAD__)
  // TSan kills a child of a multithreaded fork that starts a thread (see
  // tests/test_supervisor.cpp).
  SweepRequest forked = req;
  forked.isolation = SweepIsolation::kProcess;
  forked.workers = 3;
  check(forked, "isolation=process workers=3");
#endif
}

TEST(SharedStreamSweep, EveryCellEqualsAStandaloneRun) {
  expect_cells_match_standalone_runs("");
}

TEST(SharedStreamSweep, EveryCellEqualsAStandaloneRunWithWrongPaths) {
  expect_cells_match_standalone_runs("wrong_path=1");
}

TEST(SharedStreamSweep, EveryCellEqualsAStandaloneRunUnderFlushFetch) {
  expect_cells_match_standalone_runs("fetch=flush");
}

TEST(SharedStreamSweep, EveryCellEqualsAStandaloneRunUnderFaults) {
  expect_cells_match_standalone_runs("fault_intensity=0.5,fault_seed=3");
}

// Beyond the record budget every cell generates its own streams;
// max_cycles keeps this deep sweep short.
TEST(SharedStreamSweep, EveryCellEqualsAStandaloneRunBeyondTheRecordBudget) {
  expect_cells_match_standalone_runs("horizon=600000,max_cycles=3000", /*shared=*/false);
}

// A group's streams hold at most thread_count x (warmup + horizon) records
// plus what is in flight, so sharing stops where that would pass the budget.
TEST(SharedStreamSweep, SharingStopsAtTheRecordBudget) {
  SweepRequest req;
  req.thread_count = 4;
  req.base.warmup = 3'750;
  req.base.horizon = 20'000;
  EXPECT_TRUE(shares_streams(req));
  req.base.warmup = 0;
  req.base.horizon = kSharedStreamRecordBudget / 4;
  EXPECT_TRUE(shares_streams(req));
  req.base.horizon += 1;
  EXPECT_FALSE(shares_streams(req));
  req.base.warmup = 15'000;  // the figure benches' default
  req.base.horizon = 80'000;
  EXPECT_TRUE(shares_streams(req));
  req.base.horizon = 100'000'000;  // the paper's runs
  EXPECT_FALSE(shares_streams(req));
  req.base.warmup = ~std::uint64_t{0};  // no overflow
  req.base.horizon = ~std::uint64_t{0};
  EXPECT_FALSE(shares_streams(req));
}

}  // namespace
}  // namespace msim::sim
