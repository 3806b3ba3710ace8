// Integration tests of the full SMT pipeline.
#include "smt/pipeline.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/profile.hpp"

namespace msim::smt {
namespace {

std::vector<trace::BenchmarkProfile> workload(std::initializer_list<const char*> names) {
  std::vector<trace::BenchmarkProfile> out;
  for (const char* n : names) out.push_back(trace::profile_or_throw(n));
  return out;
}

MachineConfig config_for(core::SchedulerKind kind, unsigned threads,
                         std::uint32_t iq = 64) {
  MachineConfig mc;
  mc.thread_count = threads;
  mc.scheduler.kind = kind;
  mc.scheduler.iq_entries = iq;
  return mc;
}

TEST(Pipeline, SingleThreadCommitsInstructions) {
  const auto w = workload({"gzip"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  p.run(5000);
  EXPECT_GE(p.committed(0), 5000u);
  EXPECT_GT(p.ipc(0), 0.1);
  EXPECT_LT(p.ipc(0), 8.0);  // machine width bound
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto w = workload({"gcc", "swim"});
  Pipeline a(config_for(core::SchedulerKind::kTwoOpBlockOoo, 2), w, 7);
  Pipeline b(config_for(core::SchedulerKind::kTwoOpBlockOoo, 2), w, 7);
  a.run(10000);
  b.run(10000);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.committed(0), b.committed(0));
  EXPECT_EQ(a.committed(1), b.committed(1));
}

TEST(Pipeline, SeedChangesTheRun) {
  const auto w = workload({"gcc"});
  Pipeline a(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  Pipeline b(config_for(core::SchedulerKind::kTraditional, 1), w, 2);
  a.run(10000);
  b.run(10000);
  EXPECT_NE(a.cycles(), b.cycles());
}

class PipelineAllKinds : public ::testing::TestWithParam<core::SchedulerKind> {};

TEST_P(PipelineAllKinds, TwoThreadsBothMakeProgress) {
  const auto w = workload({"gzip", "equake"});
  Pipeline p(config_for(GetParam(), 2), w, 3);
  p.run(20000, /*max_cycles=*/2'000'000);
  EXPECT_GT(p.committed(0), 1000u);
  EXPECT_GT(p.committed(1), 1000u);
  EXPECT_EQ(p.total_committed(), p.committed(0) + p.committed(1));
  EXPECT_NEAR(p.total_ipc(),
              static_cast<double>(p.total_committed()) /
                  static_cast<double>(p.cycles()),
              1e-12);
}

TEST_P(PipelineAllKinds, TinyIssueQueueStillMakesProgress) {
  // A 4-entry IQ is a brutal stress for the out-of-order dispatch deadlock
  // machinery: the DAB (or watchdog) must keep the machine live.
  const auto w = workload({"twolf", "art"});
  Pipeline p(config_for(GetParam(), 2, /*iq=*/4), w, 11);
  const Cycle used = p.run(3000, /*max_cycles=*/3'000'000);
  EXPECT_LT(used, 3'000'000u) << "machine deadlocked or crawled";
  EXPECT_GE(std::max(p.committed(0), p.committed(1)), 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PipelineAllKinds,
    ::testing::Values(core::SchedulerKind::kTraditional,
                      core::SchedulerKind::kTwoOpBlock,
                      core::SchedulerKind::kTwoOpBlockOoo,
                      core::SchedulerKind::kTwoOpBlockOooFiltered,
                      core::SchedulerKind::kTagElimination),
    [](const ::testing::TestParamInfo<core::SchedulerKind>& param_info) {
      return std::string(core::scheduler_kind_name(param_info.param));
    });

TEST(Pipeline, WatchdogModeRunsAndRecovers) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2, /*iq=*/8);
  mc.scheduler.deadlock = core::DeadlockMode::kWatchdog;
  mc.scheduler.watchdog_timeout = 64;  // aggressive, to exercise flushes
  const auto w = workload({"art", "lucas"});
  Pipeline p(mc, w, 5);
  const Cycle used = p.run(5000, /*max_cycles=*/3'000'000);
  EXPECT_LT(used, 3'000'000u);
  EXPECT_GE(std::max(p.committed(0), p.committed(1)), 5000u);
  // With so small a timeout on a memory-bound mix, flushes certainly fired.
  EXPECT_GT(p.scheduler().dispatch_stats().watchdog_flushes, 0u);
}

TEST(Pipeline, WatchdogFlushPreservesArchitecturalProgress) {
  // Committed counts must be monotonic through flush/replay cycles.
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 1, /*iq=*/8);
  mc.scheduler.deadlock = core::DeadlockMode::kWatchdog;
  mc.scheduler.watchdog_timeout = 40;
  const auto w = workload({"equake"});
  Pipeline p(mc, w, 9);
  std::uint64_t last = 0;
  for (int chunk = 0; chunk < 20; ++chunk) {
    for (int i = 0; i < 2000; ++i) p.tick();
    EXPECT_GE(p.committed(0), last);
    last = p.committed(0);
  }
  EXPECT_GT(last, 0u);
}

TEST(Pipeline, ResetStatsStartsANewMeasurementWindow) {
  const auto w = workload({"gzip"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  p.run(5000);
  p.reset_stats();
  EXPECT_EQ(p.cycles(), 0u);
  EXPECT_EQ(p.committed(0), 0u);
  EXPECT_EQ(p.scheduler().dispatch_stats().cycles, 0u);
  p.run(1000);
  EXPECT_GE(p.committed(0), 1000u);
  EXPECT_GT(p.cycles(), 0u);
}

TEST(Pipeline, RunStopsAtMaxCycles) {
  const auto w = workload({"gzip"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  const Cycle used = p.run(100'000'000, /*max_cycles=*/500);
  EXPECT_EQ(used, 500u);
}

TEST(Pipeline, SchedulerKindsDifferInThroughput) {
  // On a 2-LOW mix with a 64-entry queue, the paper's headline ordering:
  // 2OP_BLOCK < traditional <= 2OP_BLOCK+OOO.
  const auto w = workload({"equake", "lucas"});
  auto measure = [&](core::SchedulerKind kind) {
    Pipeline p(config_for(kind, 2), w, 21);
    p.run(10000);   // warm-up
    p.reset_stats();
    p.run(40000);
    return p.total_ipc();
  };
  const double trad = measure(core::SchedulerKind::kTraditional);
  const double block = measure(core::SchedulerKind::kTwoOpBlock);
  const double ooo = measure(core::SchedulerKind::kTwoOpBlockOoo);
  EXPECT_LT(block, trad);
  EXPECT_GT(ooo, block);
}

TEST(Pipeline, MemoryAndPredictorAreExercised) {
  const auto w = workload({"gcc"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  p.run(20000);
  EXPECT_GT(p.memory().stats().l1d.accesses, 1000u);
  // The I-cache is consulted once per fetched line (128 B = 32 instructions).
  EXPECT_GT(p.memory().stats().l1i.accesses, 300u);
  EXPECT_GT(p.predictor().total_stats().branches, 1000u);
  EXPECT_GT(p.stats().issued, 20000u);
  EXPECT_GT(p.lsq_stats(0).loads_checked, 1000u);
}

TEST(Pipeline, IcountFetchKeepsThreadsBalanced) {
  // Two identical threads must commit within a reasonable factor of each
  // other under the ICOUNT policy.
  const auto w = workload({"gzip", "gzip"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 2), w, 31);
  p.run(30000);
  const double a = static_cast<double>(p.committed(0));
  const double b = static_cast<double>(p.committed(1));
  EXPECT_GT(a / b, 0.7);
  EXPECT_LT(a / b, 1.4);
}

TEST(Pipeline, FilteredAblationDispatchesNoDependentHdis) {
  const auto w = workload({"equake", "lucas"});
  Pipeline p(config_for(core::SchedulerKind::kTwoOpBlockOooFiltered, 2), w, 13);
  p.run(20000, /*max_cycles=*/3'000'000);
  const auto& d = p.scheduler().dispatch_stats();
  EXPECT_EQ(d.ooo_dispatches_dependent, 0u);
  EXPECT_GT(d.filtered_suppressed, 0u);
}

TEST(Pipeline, OooDispatchDependentFractionIsMinority) {
  // Section 4: only ~10% of HDIs dispatched out of order depend on a
  // bypassed NDI.  Assert the qualitative claim (a small minority).
  const auto w = workload({"equake", "lucas"});
  Pipeline p(config_for(core::SchedulerKind::kTwoOpBlockOoo, 2), w, 13);
  p.run(30000, /*max_cycles=*/3'000'000);
  const auto& d = p.scheduler().dispatch_stats();
  ASSERT_GT(d.ooo_dispatches, 1000u);
  EXPECT_LT(d.ooo_dependent_fraction(), 0.35);
}


// ---- fetch policies ----------------------------------------------------------

class PipelineFetchPolicies : public ::testing::TestWithParam<FetchPolicy> {};

TEST_P(PipelineFetchPolicies, MixedWorkloadMakesProgress) {
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 2);
  mc.fetch_policy = GetParam();
  const auto w = workload({"art", "gzip"});
  Pipeline p(mc, w, 17);
  const Cycle used = p.run(10000, /*max_cycles=*/4'000'000);
  EXPECT_LT(used, 4'000'000u);
  EXPECT_GT(p.committed(0), 100u);
  EXPECT_GT(p.committed(1), 100u);
}

TEST_P(PipelineFetchPolicies, DeterministicUnderEveryPolicy) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.fetch_policy = GetParam();
  const auto w = workload({"equake", "bzip2"});
  Pipeline a(mc, w, 23), b(mc, w, 23);
  a.run(8000, 4'000'000);
  b.run(8000, 4'000'000);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.committed(0), b.committed(0));
  EXPECT_EQ(a.committed(1), b.committed(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PipelineFetchPolicies,
    ::testing::Values(FetchPolicy::kIcount, FetchPolicy::kRoundRobin,
                      FetchPolicy::kStall, FetchPolicy::kFlush),
    [](const ::testing::TestParamInfo<FetchPolicy>& param_info) {
      return std::string(fetch_policy_name(param_info.param));
    });

TEST(PipelineFetch, StallGatesMemoryBoundThreads) {
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 2);
  mc.fetch_policy = FetchPolicy::kStall;
  const auto w = workload({"art", "lucas"});
  Pipeline p(mc, w, 29);
  p.run(10000, 4'000'000);
  EXPECT_GT(p.stats().fetch_l2_gated, 100u);
  EXPECT_EQ(p.stats().policy_flushes, 0u);  // STALL never squashes
}

TEST(PipelineFetch, FlushSquashesAndReplays) {
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 2);
  mc.fetch_policy = FetchPolicy::kFlush;
  const auto w = workload({"art", "lucas"});
  Pipeline p(mc, w, 29);
  p.run(10000, 4'000'000);
  EXPECT_GT(p.stats().policy_flushes, 10u);
  EXPECT_GT(p.stats().policy_flushed_instructions, p.stats().policy_flushes);
  // Architectural progress is never lost to squashes.
  EXPECT_GE(std::max(p.committed(0), p.committed(1)), 10000u);
}

TEST(PipelineFetch, FlushCommitsMonotonically) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.fetch_policy = FetchPolicy::kFlush;
  const auto w = workload({"equake", "swim"});
  Pipeline p(mc, w, 31);
  std::uint64_t last = 0;
  for (int chunk = 0; chunk < 30; ++chunk) {
    for (int i = 0; i < 1500; ++i) p.tick();
    const std::uint64_t now_committed = p.total_committed();
    EXPECT_GE(now_committed, last);
    last = now_committed;
  }
  EXPECT_GT(last, 0u);
}

TEST(PipelineFetch, IcountIgnoresL2Misses) {
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 2);
  mc.fetch_policy = FetchPolicy::kIcount;
  const auto w = workload({"art", "lucas"});
  Pipeline p(mc, w, 29);
  p.run(10000, 4'000'000);
  EXPECT_EQ(p.stats().fetch_l2_gated, 0u);
}

// ---- tag elimination end to end ----------------------------------------------

TEST(PipelineTagElim, RunsAndDispatchesTwoNonReadyInstructions) {
  const auto w = workload({"gcc", "swim"});
  Pipeline p(config_for(core::SchedulerKind::kTagElimination, 2), w, 37);
  p.run(15000, 4'000'000);
  EXPECT_GT(p.total_committed(), 15000u);
  const auto& d = p.scheduler().dispatch_stats();
  // Unlike 2OP_BLOCK, the partitioned queue admits 2-non-ready instructions.
  EXPECT_GT(d.dispatched_by_nonready[2], 0u);
  EXPECT_EQ(d.ndi_blocked_thread_cycles, 0u);
}

TEST(PipelineTagElim, CamCostMatchesReducedDesigns) {
  const auto w = workload({"gzip"});
  Pipeline trad(config_for(core::SchedulerKind::kTraditional, 1), w, 1);
  Pipeline elim(config_for(core::SchedulerKind::kTagElimination, 1), w, 1);
  EXPECT_EQ(trad.scheduler().iq().layout().comparators(), 128u);
  EXPECT_EQ(elim.scheduler().iq().layout().comparators(), 64u);
}


// ---- wrong-path execution modeling --------------------------------------------

TEST(PipelineWrongPath, FetchesIssuesAndSquashes) {
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 1);
  mc.model_wrong_path = true;
  const auto w = workload({"gcc"});  // plenty of mispredicts
  Pipeline p(mc, w, 41);
  p.run(20000, 4'000'000);
  EXPECT_GT(p.stats().wrong_path_fetched, 1000u);
  EXPECT_GT(p.stats().wrong_path_issued, 0u);
  EXPECT_GT(p.stats().wrong_path_squashes, 100u);
}

TEST(PipelineWrongPath, NeverCommitsWrongPathInstructions) {
  // The MSIM_CHECK in commit enforces this; the run completing at all is
  // the assertion.  Also: committed counts must equal the trace stream's
  // architectural order (monotone, gap-free by construction).
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.model_wrong_path = true;
  const auto w = workload({"crafty", "twolf"});
  Pipeline p(mc, w, 43);
  const Cycle used = p.run(15000, 4'000'000);
  EXPECT_LT(used, 4'000'000u);
  EXPECT_GE(std::max(p.committed(0), p.committed(1)), 15000u);
}

TEST(PipelineWrongPath, DeterministicWithModelingOn) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.model_wrong_path = true;
  const auto w = workload({"gcc", "swim"});
  Pipeline a(mc, w, 47), b(mc, w, 47);
  a.run(10000, 4'000'000);
  b.run(10000, 4'000'000);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.committed(0), b.committed(0));
}

TEST(PipelineWrongPath, OffByDefaultAndInert) {
  const auto w = workload({"gcc"});
  Pipeline p(config_for(core::SchedulerKind::kTraditional, 1), w, 49);
  p.run(10000);
  EXPECT_EQ(p.stats().wrong_path_fetched, 0u);
  EXPECT_EQ(p.stats().wrong_path_squashes, 0u);
}

TEST(PipelineWrongPath, PollutesTheCaches) {
  // With wrong-path modeling on, the same run performs strictly more
  // I-cache and D-cache accesses.
  MachineConfig mc = config_for(core::SchedulerKind::kTraditional, 1);
  const auto w = workload({"gcc"});
  Pipeline off(mc, w, 51);
  off.run(15000, 4'000'000);
  mc.model_wrong_path = true;
  Pipeline on(mc, w, 51);
  on.run(15000, 4'000'000);
  EXPECT_GT(on.memory().stats().l1d.accesses, off.memory().stats().l1d.accesses);
}

TEST(PipelineWrongPath, ComposesWithWatchdogFlush) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2, /*iq=*/8);
  mc.model_wrong_path = true;
  mc.scheduler.deadlock = core::DeadlockMode::kWatchdog;
  mc.scheduler.watchdog_timeout = 64;
  const auto w = workload({"art", "twolf"});
  Pipeline p(mc, w, 53);
  const Cycle used = p.run(4000, 4'000'000);
  EXPECT_LT(used, 4'000'000u);
}

TEST(PipelineWrongPath, ComposesWithFlushFetchPolicy) {
  MachineConfig mc = config_for(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.model_wrong_path = true;
  mc.fetch_policy = FetchPolicy::kFlush;
  const auto w = workload({"art", "gcc"});
  Pipeline p(mc, w, 59);
  const Cycle used = p.run(8000, 4'000'000);
  EXPECT_LT(used, 4'000'000u);
  EXPECT_GT(p.stats().policy_flushes, 0u);
}

}  // namespace
}  // namespace msim::smt
