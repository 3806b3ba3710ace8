// Tests for the robustness subsystem (src/robust/): fault injection,
// deadlock-recovery paths under injected pressure, the cycle-level
// invariant checker, the simulator hang watchdog with its diagnostic
// bundle, crash-isolating sweeps, and configuration validation.
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "robust/invariant.hpp"
#include "sim/experiment.hpp"
#include "sim/run.hpp"
#include "smt/machine_config.hpp"
#include "smt/pipeline.hpp"
#include "trace/mixes.hpp"
#include "trace/profile.hpp"

namespace msim {
namespace {

// ---- check failures (common/check.hpp) ------------------------------------
// The CheckHandler suite name predates the installable handler's removal;
// these tests now pin the one failure mode: a failed check always throws.

TEST(CheckHandler, ScopedCheckThrowConvertsFailuresToExceptions) {
  // No guard or handler is installed: check_failed throws on its own.
  try {
    detail::check_failed("x > 0", "some_file.cpp", 42);
    FAIL() << "check_failed returned";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), "MSIM_CHECK failed: x > 0 at some_file.cpp:42");
  }
}

TEST(CheckHandler, MsimCheckMacroRoutesThroughHandler) {
  const int three = 3;
  EXPECT_NO_THROW(MSIM_CHECK(three == 3));
  const int line = __LINE__ + 2;
  try {
    MSIM_CHECK(three == 4);
    FAIL() << "MSIM_CHECK returned";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), std::string("MSIM_CHECK failed: three == 4 at ") +
                                         __FILE__ + ":" + std::to_string(line));
  }
  // Nothing is installed anywhere: every thread gets the same exception.
  bool threw = false;
  std::thread other([&] {
    try {
      MSIM_CHECK(three == 5);
    } catch (const CheckError&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
}

// ---- fault plans -----------------------------------------------------------

TEST(FaultPlan, RandomPlansAreDeterministicPerIndex) {
  const robust::FaultPlan a = robust::FaultPlan::random(7, 3, 0.5);
  const robust::FaultPlan b = robust::FaultPlan::random(7, 3, 0.5);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.window, b.window);
  EXPECT_DOUBLE_EQ(a.ndi_storm_p, b.ndi_storm_p);
  EXPECT_DOUBLE_EQ(a.iq_exhaust_p, b.iq_exhaust_p);

  const robust::FaultPlan c = robust::FaultPlan::random(7, 4, 0.5);
  EXPECT_NE(a.seed, c.seed);
  // Randomized resilience plans never include sabotage faults.
  EXPECT_FALSE(a.sabotage());
  EXPECT_FALSE(c.sabotage());
}

TEST(FaultPlan, IntensityScalesProbabilities) {
  const robust::FaultPlan weak = robust::FaultPlan::random(7, 3, 0.1);
  const robust::FaultPlan strong = robust::FaultPlan::random(7, 3, 1.0);
  EXPECT_LT(weak.ndi_storm_p, strong.ndi_storm_p);
  EXPECT_GE(weak.ndi_storm_p, 0.0);
  EXPECT_LE(strong.ndi_storm_p, 1.0);
}

TEST(FaultPlan, TargetStreamGatesSessions) {
  robust::FaultPlan plan;
  plan.ndi_storm_p = 1.0;
  plan.target_stream = 1234;
  EXPECT_TRUE(plan.applies_to(1234));
  EXPECT_FALSE(plan.applies_to(1235));

  const robust::FaultInjector injector(plan);
  EXPECT_NE(injector.session(1234), nullptr);
  EXPECT_EQ(injector.session(1235), nullptr);

  robust::FaultPlan open = plan;
  open.target_stream = 0;  // applies to every run
  const robust::FaultInjector open_injector(open);
  EXPECT_NE(open_injector.session(99), nullptr);
}

TEST(FaultPlan, SessionsAreStatelessAndRepeatable) {
  robust::FaultPlan plan;
  plan.seed = 42;
  plan.ndi_storm_p = 0.5;
  plan.latency_p = 0.5;
  plan.latency_max = 8;
  const robust::FaultInjector injector(plan);
  const auto s1 = injector.session(0);
  const auto s2 = injector.session(0);
  ASSERT_NE(s1, nullptr);
  for (Cycle now = 0; now < 512; ++now) {
    EXPECT_EQ(s1->force_ndi(0, now, now), s2->force_ndi(0, now, now));
    EXPECT_EQ(s1->extra_issue_latency(1, now, now),
              s2->extra_issue_latency(1, now, now));
  }
}

// ---- deadlock recovery under injected pressure -----------------------------

sim::RunConfig faulted_config(core::DeadlockMode deadlock) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake"};
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.deadlock = deadlock;
  cfg.watchdog_timeout = 200;
  cfg.warmup = 1000;
  cfg.horizon = 6000;
  cfg.verify = true;
  cfg.hang_cycles = 50'000;
  return cfg;
}

TEST(DeadlockRecovery, DabRescuesThroughForcedIqExhaustion) {
  robust::FaultPlan plan;
  plan.seed = 9;
  plan.iq_exhaust_p = 0.6;  // the IQ pretends full in most windows
  plan.ndi_storm_p = 0.4;
  plan.window = 32;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.faults = &injector;
  const sim::RunResult r = sim::run_simulation(cfg);  // must not hang or abort
  EXPECT_GT(r.dispatch.fault_iq_denials, 0u);
  EXPECT_GT(r.dispatch.dab_inserts, 0u);  // the DAB actually rescued
  EXPECT_GT(r.throughput_ipc, 0.0);
}

TEST(DeadlockRecovery, WatchdogFlushReplayRestoresProgress) {
  robust::FaultPlan plan;
  plan.seed = 9;
  plan.ndi_storm_p = 0.8;  // storms that deadlock OOO dispatch without a DAB
  plan.iq_exhaust_p = 0.3;
  plan.window = 64;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kWatchdog);
  cfg.faults = &injector;
  const sim::RunResult r = sim::run_simulation(cfg);
  EXPECT_GT(r.dispatch.watchdog_flushes, 0u);  // it fired...
  std::uint64_t committed = 0;
  for (const std::uint64_t c : r.per_thread_committed) committed += c;
  EXPECT_GE(committed, cfg.horizon);  // ...and the machine still got there
}

TEST(DeadlockRecovery, LatencyPerturbationIsHarmless) {
  robust::FaultPlan plan;
  plan.seed = 11;
  plan.latency_p = 0.5;
  plan.latency_max = 24;
  plan.rob_exhaust_p = 0.2;
  plan.lsq_exhaust_p = 0.2;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.faults = &injector;
  const sim::RunResult r = sim::run_simulation(cfg);
  EXPECT_GT(r.pipeline.fault_extra_latency_cycles, 0u);
  EXPECT_GT(r.pipeline.fault_rob_denials, 0u);
  EXPECT_GT(r.pipeline.fault_lsq_denials, 0u);
  EXPECT_GT(r.throughput_ipc, 0.0);
}

TEST(DeadlockRecovery, FaultedRunsAreDeterministic) {
  robust::FaultPlan plan;
  plan.seed = 13;
  plan.ndi_storm_p = 0.5;
  plan.iq_exhaust_p = 0.3;
  plan.latency_p = 0.2;
  plan.latency_max = 8;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kWatchdog);
  cfg.faults = &injector;
  const sim::RunResult a = sim::run_simulation(cfg);
  const sim::RunResult b = sim::run_simulation(cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.per_thread_committed, b.per_thread_committed);
  EXPECT_EQ(a.dispatch.fault_forced_ndis, b.dispatch.fault_forced_ndis);
}

// ---- invariant checker -----------------------------------------------------

TEST(InvariantChecker, CleanRunsPassUnderEveryScheduler) {
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
        core::SchedulerKind::kTwoOpBlockOoo,
        core::SchedulerKind::kTagElimination}) {
    sim::RunConfig cfg;
    cfg.benchmarks = {"gzip", "equake"};
    cfg.kind = kind;
    cfg.warmup = 500;
    cfg.horizon = 4000;
    cfg.verify = true;
    EXPECT_NO_THROW((void)sim::run_simulation(cfg))
        << core::scheduler_kind_name(kind);
  }
}

TEST(InvariantChecker, VerifiedRunMatchesUnverifiedRun) {
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.verify = false;
  const sim::RunResult plain = sim::run_simulation(cfg);
  cfg.verify = true;
  const sim::RunResult checked = sim::run_simulation(cfg);
  EXPECT_EQ(plain.cycles, checked.cycles);
  EXPECT_EQ(plain.per_thread_committed, checked.per_thread_committed);
}

TEST(InvariantChecker, CatchesDroppedDispatches) {
  robust::FaultPlan plan;
  plan.seed = 3;
  plan.drop_dispatch_p = 0.05;  // sabotage: instructions silently vanish
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.faults = &injector;
  cfg.hang_cycles = 3000;  // a leak can also starve commit; cap the wait
  try {
    (void)sim::run_simulation(cfg);
    FAIL() << "dropped dispatches went undetected";
  } catch (const robust::SimulationAborted& e) {
    EXPECT_FALSE(e.bundle().empty());
    EXPECT_NO_THROW((void)JsonValue::parse(e.bundle()));
  }
}

// ---- hang watchdog + diagnostic bundle -------------------------------------

TEST(HangWatchdog, CommitBlockadeAbortsWithParseableBundle) {
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.verify = false;
  cfg.faults = &injector;
  cfg.hang_cycles = 2000;
  try {
    (void)sim::run_simulation(cfg);
    FAIL() << "commit blockade went undetected";
  } catch (const robust::SimulationAborted& e) {
    EXPECT_NE(std::string(e.what()).find("hang watchdog"), std::string::npos);
    const JsonValue doc = JsonValue::parse(e.bundle());
    EXPECT_EQ(doc.at("report").as_string(), "msim-diagnostic-bundle");
    EXPECT_GE(doc.at("cycle").as_number(), 2000.0);
    EXPECT_NE(doc.at("reason").as_string().find("no thread committed"),
              std::string::npos);
    // Occupancy snapshot: one record per hardware thread.
    const auto& threads = doc.at("occupancy").at("threads").as_array();
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_TRUE(threads[0].contains("rob"));
    EXPECT_TRUE(threads[0].contains("block_reason"));
    EXPECT_TRUE(doc.at("config").contains("scheduler_kind"));
    EXPECT_TRUE(doc.contains("stats"));
  }
}

TEST(HangWatchdog, ZeroDisablesIt) {
  // hang_cycles=0 turns the watchdog off; max_cycles then truncates the run.
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.verify = false;
  cfg.faults = &injector;
  cfg.hang_cycles = 0;
  cfg.max_cycles = 3000;
  const sim::RunResult r = sim::run_simulation(cfg);
  EXPECT_TRUE(r.truncated);
}

TEST(HangWatchdog, DiagnosticBundleIncludesTraceTailWhenTracing) {
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.verify = false;
  cfg.faults = &injector;
  cfg.hang_cycles = 2000;
  cfg.trace_capacity = 1024;
  try {
    (void)sim::run_simulation(cfg);
    FAIL() << "commit blockade went undetected";
  } catch (const robust::SimulationAborted& e) {
    const JsonValue doc = JsonValue::parse(e.bundle());
    ASSERT_TRUE(doc.contains("trace_tail"));
    EXPECT_GT(doc.at("trace_tail").as_array().size(), 0u);
    EXPECT_LE(doc.at("trace_tail").as_array().size(), 256u);
  }
}

// ---- crash-isolating sweeps ------------------------------------------------

sim::SweepRequest small_sweep() {
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32};
  req.base.warmup = 500;
  req.base.horizon = 3000;
  req.base.hang_cycles = 2000;
  return req;
}

TEST(CrashIsolation, SweepSurvivesOnePoisonedCell) {
  sim::SweepRequest req = small_sweep();

  // Reference: fault-free serial sweep.
  sim::BaselineCache clean_baselines(req.base);
  const auto clean = run_sweep(req, clean_baselines);
  ASSERT_TRUE(sim::sweep_failures(clean).empty());

  // Poison the (first mix, iq=32) stream — shared by both kinds.
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 32);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;
  req.retries = 1;
  sim::BaselineCache baselines(req.base);
  const auto cells = run_sweep(req, baselines);

  const auto failed = sim::sweep_failures(cells);
  ASSERT_EQ(failed.size(), 2u);  // one per scheduler kind
  for (const sim::FailedCell& f : failed) {
    EXPECT_EQ(f.mix_name, victim);
    EXPECT_EQ(f.attempts, 2u);  // original + one retry
    EXPECT_NE(f.error.find("hang watchdog"), std::string::npos) << f.error;
  }

  // Survivors are bit-identical to the fault-free sweep.
  ASSERT_EQ(cells.size(), clean.size());
  unsigned survivors = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ASSERT_EQ(cells[c].mixes.size(), clean[c].mixes.size());
    for (std::size_t m = 0; m < cells[c].mixes.size(); ++m) {
      if (!cells[c].mixes[m].ok) continue;
      ++survivors;
      EXPECT_EQ(cells[c].mixes[m].raw.cycles, clean[c].mixes[m].raw.cycles);
      EXPECT_DOUBLE_EQ(cells[c].mixes[m].throughput_ipc,
                       clean[c].mixes[m].throughput_ipc);
      EXPECT_DOUBLE_EQ(cells[c].mixes[m].fairness, clean[c].mixes[m].fairness);
    }
  }
  EXPECT_GT(survivors, 0u);

  // Aggregates exclude the victim but stay well-defined.
  for (const sim::SweepCell& cell : cells) {
    EXPECT_GT(cell.hmean_ipc, 0.0);
    EXPECT_GT(cell.ipc_speedup_vs_trad, 0.0);
  }
}

TEST(CrashIsolation, ParallelIsolatedSweepMatchesSerial) {
  sim::SweepRequest req = small_sweep();
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 32);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;

  sim::BaselineCache serial_baselines(req.base);
  req.jobs = 1;
  const auto serial = run_sweep(req, serial_baselines);
  sim::BaselineCache parallel_baselines(req.base);
  req.jobs = 4;
  const auto parallel = run_sweep(req, parallel_baselines);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(serial[c].mixes.size(), parallel[c].mixes.size());
    for (std::size_t m = 0; m < serial[c].mixes.size(); ++m) {
      EXPECT_EQ(serial[c].mixes[m].ok, parallel[c].mixes[m].ok);
      EXPECT_EQ(serial[c].mixes[m].raw.cycles, parallel[c].mixes[m].raw.cycles);
      EXPECT_DOUBLE_EQ(serial[c].mixes[m].throughput_ipc,
                       parallel[c].mixes[m].throughput_ipc);
    }
  }
}

TEST(CrashIsolation, IsolationOffPropagatesTheFailure) {
  sim::SweepRequest req = small_sweep();
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 32);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;
  req.isolate_failures = false;
  sim::BaselineCache baselines(req.base);
  EXPECT_THROW((void)run_sweep(req, baselines), robust::SimulationAborted);
}

// ---- configuration validation ----------------------------------------------

TEST(Validation, RejectsEmptyBenchmarks) {
  sim::RunConfig cfg;
  cfg.benchmarks.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW((void)sim::run_simulation(cfg), std::invalid_argument);
}

TEST(Validation, RejectsZeroHorizon) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gcc"};
  cfg.horizon = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validation, RejectsUnarmableWatchdog) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gcc", "gzip"};
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.deadlock = core::DeadlockMode::kWatchdog;
  cfg.watchdog_timeout = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validation, RejectsHangThresholdBelowWatchdogTimeout) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gcc"};
  cfg.hang_cycles = 100;  // would fire before the scheduler watchdog could act
  cfg.watchdog_timeout = 450;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validation, RejectsStructurallyBrokenMachine) {
  smt::MachineConfig mc;
  mc.thread_count = 2;
  mc.int_phys_regs = 48;  // < 2 threads x 32 architectural registers
  EXPECT_THROW(mc.validate(), std::invalid_argument);

  smt::MachineConfig zero_iq;
  zero_iq.thread_count = 1;
  zero_iq.scheduler.iq_entries = 0;
  EXPECT_THROW(zero_iq.validate(), std::invalid_argument);

  smt::MachineConfig fine;
  fine.thread_count = 2;
  EXPECT_NO_THROW(fine.validate());
}

TEST(Validation, ErrorsAreActionable) {
  sim::RunConfig cfg;
  try {
    cfg.validate();
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("benchmarks="), std::string::npos);
  }
}

// ---- stats plumbing --------------------------------------------------------

TEST(RobustStats, FaultCountersAppearInRegistryAndResetCleanly) {
  robust::FaultPlan plan;
  plan.seed = 5;
  plan.ndi_storm_p = 0.5;
  plan.iq_exhaust_p = 0.3;
  plan.latency_p = 0.3;
  plan.latency_max = 4;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = faulted_config(core::DeadlockMode::kAvoidanceBuffer);
  cfg.faults = &injector;
  const sim::RunResult r = sim::run_simulation(cfg);

  bool found_forced = false, found_latency = false;
  for (const obs::MetricSnapshot& m : r.metrics) {
    if (m.name == "scheduler.dispatch.fault_forced_ndis") {
      found_forced = true;
      EXPECT_DOUBLE_EQ(m.value,
                       static_cast<double>(r.dispatch.fault_forced_ndis));
      EXPECT_GT(m.value, 0.0);
    }
    if (m.name == "pipeline.fault.extra_latency_cycles") {
      found_latency = true;
      EXPECT_GT(m.value, 0.0);
    }
  }
  EXPECT_TRUE(found_forced);
  EXPECT_TRUE(found_latency);

  // run_simulation resets stats after warm-up: a fault-free measurement
  // window reports zero fault activity even after a faulted warm-up.
  smt::MachineConfig mc = cfg.machine();
  const auto session = injector.session(cfg.seed);
  mc.fault_hooks = session.get();
  std::vector<trace::BenchmarkProfile> profiles;
  for (const std::string& b : cfg.benchmarks) {
    profiles.push_back(trace::profile_or_throw(b));
  }
  smt::Pipeline pipe(mc, profiles, cfg.seed);
  pipe.run(1000, 0);
  EXPECT_GT(pipe.scheduler().dispatch_stats().fault_forced_ndis, 0u);
  pipe.reset_stats();
  EXPECT_EQ(pipe.scheduler().dispatch_stats().fault_forced_ndis, 0u);
  EXPECT_EQ(pipe.scheduler().dispatch_stats().fault_iq_denials, 0u);
  EXPECT_EQ(pipe.stats().fault_extra_latency_cycles, 0u);
  EXPECT_EQ(pipe.stats().fault_rob_denials, 0u);
}

}  // namespace
}  // namespace msim
