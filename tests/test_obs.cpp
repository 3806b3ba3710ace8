// Tests for the observability layer: metric snapshots, the lifecycle
// tracer and its exporters, the self-profiling timers, and their
// integration with the full pipeline (machine-readable run reports,
// DAB-rescue reconstruction, warm-up reset coverage).
#include <cstdint>
#include <sstream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace msim {
namespace {

using obs::InstLifecycle;
using obs::InstTracer;
using obs::MetricKind;
using obs::MetricSnapshot;
using obs::TraceEvent;
using obs::TraceStage;

// ---- metric snapshots (the stat registry) ----------------------------------

TEST(StatRegistry, AppendHelpersFillEachKindsFields) {
  std::vector<MetricSnapshot> snap;
  obs::append_counter(snap, "x.hits", 3);
  obs::append_gauge(snap, "x.level", 2.5);
  obs::append_ratio(snap, "x.hit_rate", 3, 4);
  // A ratio without opportunities reads as 0, not NaN.
  obs::append_ratio(snap, "x.idle_rate", 0, 0);
  StreamingStat occ;
  occ.add(2.0);
  occ.add(4.0);
  obs::append_sampled(snap, "x.occ", occ);
  ASSERT_EQ(snap.size(), 5u);

  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[0].count, 3u);
  EXPECT_EQ(snap[1].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap[1].value, 2.5);
  EXPECT_EQ(snap[2].kind, MetricKind::kRatio);
  EXPECT_EQ(snap[2].events, 3u);
  EXPECT_EQ(snap[2].opportunities, 4u);
  EXPECT_DOUBLE_EQ(snap[2].value, 0.75);
  EXPECT_DOUBLE_EQ(snap[3].value, 0.0);
  EXPECT_EQ(snap[4].kind, MetricKind::kSampled);
  EXPECT_EQ(snap[4].count, 2u);
  EXPECT_DOUBLE_EQ(snap[4].value, 3.0);
  EXPECT_DOUBLE_EQ(snap[4].min, 2.0);
  EXPECT_DOUBLE_EQ(snap[4].max, 4.0);
  EXPECT_DOUBLE_EQ(snap[4].stddev, occ.stddev());
}

TEST(StatRegistry, SnapshotIsSortedByName) {
  std::vector<MetricSnapshot> snap;
  obs::append_counter(snap, "b", 2);
  obs::append_counter(snap, "a.z", 1);
  obs::append_counter(snap, "a.a", 0);
  obs::sort_metrics(snap);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.a");
  EXPECT_EQ(snap[1].name, "a.z");
  EXPECT_EQ(snap[2].name, "b");

  // Each name appears once, and none is empty.
  obs::append_gauge(snap, "a.z", 1.0);
  EXPECT_THROW(obs::sort_metrics(snap), CheckError);
  std::vector<MetricSnapshot> unnamed;
  obs::append_counter(unnamed, "", 0);
  EXPECT_THROW(obs::sort_metrics(unnamed), CheckError);
}

TEST(StatRegistry, HistogramSnapshotCarriesQuantiles) {
  Histogram h(10, 1.0);
  for (int i = 0; i < 9; ++i) h.add(0.5);
  h.add(8.5);
  std::vector<MetricSnapshot> snap;
  obs::append_histogram(snap, "lat", h);
  ASSERT_EQ(snap.size(), 1u);
  const MetricSnapshot& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p99, 9.0);
}

TEST(StatRegistry, MetricsJsonParsesBack) {
  std::vector<MetricSnapshot> snap;
  obs::append_counter(snap, "group.count", 5);
  obs::append_ratio(snap, "group.rate", 5, 10);
  obs::sort_metrics(snap);
  std::ostringstream os;
  obs::write_metrics_json(os, snap);

  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("metric_count").as_number(), 2.0);
  const JsonValue& count = doc.at("metrics").at("group.count");
  EXPECT_EQ(count.at("kind").as_string(), "counter");
  EXPECT_DOUBLE_EQ(count.at("value").as_number(), 5.0);
  const JsonValue& rate = doc.at("metrics").at("group.rate");
  EXPECT_DOUBLE_EQ(rate.at("events").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(rate.at("opportunities").as_number(), 10.0);
}

// ---- InstTracer -----------------------------------------------------------

TEST(InstTracer, DisabledRecordIsANoOp) {
  InstTracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.record(1, 0, 0, TraceStage::kFetch);
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_TRUE(tr.events().empty());
}

TEST(InstTracer, RingKeepsMostRecentAndCountsDrops) {
  InstTracer tr;
  tr.enable(4);
  ASSERT_TRUE(tr.enabled());
  for (std::uint64_t i = 0; i < 6; ++i) {
    tr.record(static_cast<Cycle>(i), 0, i, TraceStage::kFetch);
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first; the two earliest events were overwritten.
  EXPECT_EQ(evs.front().seq, 2u);
  EXPECT_EQ(evs.back().seq, 5u);
}

// ---- lifecycle reconstruction --------------------------------------------

std::vector<TraceEvent> synthetic_trace() {
  // TraceEvent is {cycle, seq, tid, stage, flags}.
  return {
      {0, 0, 0, TraceStage::kFetch, 0},
      {1, 0, 0, TraceStage::kRename, 0},
      {2, 0, 0, TraceStage::kDispatch, obs::kTraceFlagOooBypass},
      {3, 0, 0, TraceStage::kIssue, 0},
      {5, 0, 0, TraceStage::kWriteback, 0},
      {6, 0, 0, TraceStage::kCommit, 0},
      {0, 1, 1, TraceStage::kFetch, 0},
      {1, 1, 1, TraceStage::kRename, 0},
      {2, 1, 1, TraceStage::kDabInsert, 0},
      {4, 1, 1, TraceStage::kIssue, obs::kTraceFlagFromDab},
      {6, 1, 1, TraceStage::kWriteback, 0},
      {7, 1, 1, TraceStage::kSquash, obs::kTraceFlagWrongPath},
  };
}

TEST(Lifecycles, FoldsStagesAndFlags) {
  const auto lcs = obs::reconstruct_lifecycles(synthetic_trace());
  ASSERT_EQ(lcs.size(), 2u);

  const InstLifecycle& a = lcs[0];
  EXPECT_EQ(a.tid, 0u);
  EXPECT_EQ(a.seq, 0u);
  EXPECT_TRUE(a.committed());
  EXPECT_TRUE(a.complete());
  EXPECT_TRUE(a.ooo_bypass);
  EXPECT_FALSE(a.dab_rescued);
  EXPECT_EQ(a.fetch, 0u);
  EXPECT_EQ(a.commit, 6u);

  const InstLifecycle& b = lcs[1];
  EXPECT_TRUE(b.dab_rescued);
  EXPECT_TRUE(b.squashed());
  EXPECT_FALSE(b.committed());
  EXPECT_TRUE(b.wrong_path);
  EXPECT_EQ(b.dispatch, 2u);  // the DAB insert counts as dispatch
  EXPECT_EQ(b.squash, 7u);
}

TEST(Lifecycles, RefetchAfterSquashOpensFreshRecord) {
  const std::vector<TraceEvent> evs{
      {0, 5, 0, TraceStage::kFetch, 0},
      {1, 5, 0, TraceStage::kRename, 0},
      {2, 5, 0, TraceStage::kSquash, 0},
      {10, 5, 0, TraceStage::kFetch, 0},  // watchdog / FLUSH replay
      {11, 5, 0, TraceStage::kRename, 0},
      {12, 5, 0, TraceStage::kDispatch, 0},
      {13, 5, 0, TraceStage::kIssue, 0},
      {14, 5, 0, TraceStage::kWriteback, 0},
      {15, 5, 0, TraceStage::kCommit, 0},
  };
  const auto lcs = obs::reconstruct_lifecycles(evs);
  ASSERT_EQ(lcs.size(), 2u);
  EXPECT_TRUE(lcs[0].squashed());
  EXPECT_FALSE(lcs[0].committed());
  EXPECT_TRUE(lcs[1].complete());
  EXPECT_EQ(lcs[1].fetch, 10u);
}

// ---- exporters ------------------------------------------------------------

TEST(Konata, EmitsHeaderStagesAndRetirements) {
  std::ostringstream os;
  obs::write_konata(os, synthetic_trace());
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("Kanata\t0004\n", 0), 0u);
  EXPECT_NE(out.find("C=\t0\n"), std::string::npos);
  EXPECT_NE(out.find("I\t0\t0\t0\n"), std::string::npos);
  EXPECT_NE(out.find("S\t0\t0\tIs\n"), std::string::npos);
  EXPECT_NE(out.find("S\t1\t0\tDAB\n"), std::string::npos);
  EXPECT_NE(out.find("[DAB]"), std::string::npos);
  // One commit retirement (type 0) and one flush retirement (type 1).
  EXPECT_NE(out.find("R\t0\t1\t0\n"), std::string::npos);
  EXPECT_NE(out.find("R\t1\t2\t1\n"), std::string::npos);
}

TEST(Konata, EmptyTraceIsJustTheHeader) {
  std::ostringstream os;
  obs::write_konata(os, {});
  EXPECT_EQ(os.str(), "Kanata\t0004\n");
}

TEST(Gantt, RendersOneRowPerInstruction) {
  std::ostringstream os;
  obs::write_gantt(os, synthetic_trace());
  const std::string out = os.str();
  EXPECT_NE(out.find("2 instruction(s)"), std::string::npos);
  EXPECT_NE(out.find('F'), std::string::npos);
  EXPECT_NE(out.find('C'), std::string::npos);
  EXPECT_NE(out.find('B'), std::string::npos);  // DAB insert
  EXPECT_NE(out.find('x'), std::string::npos);  // squash
}

// ---- timers ---------------------------------------------------------------

TEST(Timers, ScopeTimerAccumulatesIntoStages) {
  obs::TimerRegistry timers;
  for (int i = 0; i < 3; ++i) {
    obs::ScopeTimer t(timers, "work");
  }
  ASSERT_EQ(timers.stages().size(), 1u);
  EXPECT_EQ(timers.stages()[0].calls, 3u);
  EXPECT_GE(timers.seconds("work"), 0.0);
  EXPECT_DOUBLE_EQ(timers.seconds("absent"), 0.0);
  timers.clear();
  EXPECT_TRUE(timers.stages().empty());
}

TEST(Timers, SimulatedKips) {
  EXPECT_DOUBLE_EQ(obs::simulated_kips(2'000'000, 2.0), 1000.0);
  EXPECT_DOUBLE_EQ(obs::simulated_kips(100, 0.0), 0.0);
}

// ---- pipeline integration -------------------------------------------------

sim::RunConfig dab_heavy_config() {
  // Empirically: 2OP_BLOCK_OOO with a 16-entry IQ on equake+art exercises
  // the deadlock-avoidance buffer (hundreds of DAB inserts per 20k-cycle
  // run), which the DAB-rescue reconstruction test depends on.
  sim::RunConfig cfg;
  cfg.benchmarks = {"equake", "art"};
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 16;
  cfg.warmup = 2'000;
  cfg.horizon = 15'000;
  return cfg;
}

TEST(RunReport, StatsJsonHasThirtyPlusMetricsAcrossGroups) {
  const sim::RunConfig cfg = dab_heavy_config();
  const sim::RunResult result = sim::run_simulation(cfg);
  std::ostringstream os;
  sim::write_run_json(os, cfg, result);

  const JsonValue doc = JsonValue::parse(os.str());
  const auto& metrics = doc.at("metrics").as_object();
  EXPECT_GE(metrics.size(), 30u);
  EXPECT_DOUBLE_EQ(doc.at("metric_count").as_number(),
                   static_cast<double>(metrics.size()));

  // The report spans every component group.
  for (const char* name :
       {"scheduler.dispatch.dispatched", "scheduler.iq.issued",
        "scheduler.dispatch.dab_inserts", "mem.l1d.miss_rate", "mem.l2.accesses",
        "bpred.mispredict_rate", "pipeline.cycles", "fu.load_store.issues",
        "thread.0.stall.ndi_blocked_cycles", "thread.1.stall.iq_full_cycles",
        "thread.0.lsq.loads_checked", "occupancy.iq", "occupancy.rob.1"}) {
    EXPECT_TRUE(metrics.contains(name)) << name;
  }

  // Registry values agree with the struct-level result.
  EXPECT_DOUBLE_EQ(metrics.at("pipeline.cycles").at("value").as_number(),
                   static_cast<double>(result.cycles));
  EXPECT_DOUBLE_EQ(
      metrics.at("scheduler.dispatch.dab_inserts").at("value").as_number(),
      static_cast<double>(result.dispatch.dab_inserts));

  // Config echo and per-thread summary round-trip too.
  EXPECT_EQ(doc.at("config").at("scheduler").as_string(), "2op_block_ooo");
  EXPECT_DOUBLE_EQ(doc.at("config").at("iq_entries").as_number(), 16.0);
  EXPECT_EQ(doc.at("per_thread_ipc").as_array().size(), 2u);
  EXPECT_EQ(doc.at("per_thread_committed").as_array().size(), 2u);

  // The per-cycle sampled occupancy gauge covered the measured window.
  EXPECT_DOUBLE_EQ(metrics.at("occupancy.iq").at("count").as_number(),
                   static_cast<double>(result.cycles));
}

TEST(RunReport, ReconstructsADabRescuedLifecycle) {
  sim::RunConfig cfg = dab_heavy_config();
  cfg.trace_capacity = std::size_t{1} << 21;
  const sim::RunResult result = sim::run_simulation(cfg);
  ASSERT_GT(result.dispatch.dab_inserts, 0u);
  ASSERT_FALSE(result.trace.empty());

  const auto lifecycles = obs::reconstruct_lifecycles(result.trace);
  const InstLifecycle* rescued = nullptr;
  for (const InstLifecycle& lc : lifecycles) {
    if (lc.dab_rescued && lc.complete()) {
      rescued = &lc;
      break;
    }
  }
  ASSERT_NE(rescued, nullptr)
      << "no DAB-rescued instruction completed within the trace window";
  // The full lifecycle is causally ordered: fetch -> rename -> DAB insert
  // (recorded as dispatch) -> issue from the DAB -> writeback -> commit.
  EXPECT_LE(rescued->fetch, rescued->rename);
  EXPECT_LE(rescued->rename, rescued->dispatch);
  EXPECT_LE(rescued->dispatch, rescued->issue);
  EXPECT_LT(rescued->issue, rescued->writeback);
  EXPECT_LE(rescued->writeback, rescued->commit);
  EXPECT_FALSE(rescued->squashed());
}

TEST(RunReport, SweepJsonParsesBack) {
  // A run report is exercised above; here exercise the sweep writer with a
  // hand-built cell so the test stays fast.
  std::vector<sim::SweepCell> cells;
  sim::SweepCell cell;
  cell.kind = core::SchedulerKind::kTwoOpBlock;
  cell.iq_entries = 32;
  cell.hmean_ipc = 1.5;
  cells.push_back(cell);
  std::ostringstream os;
  sim::write_sweep_json(os, cells);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("cell_count").as_number(), 1.0);
  const auto& c = doc.at("cells").as_array().at(0);
  EXPECT_EQ(c.at("scheduler").as_string(), "2op_block");
  EXPECT_DOUBLE_EQ(c.at("iq_entries").as_number(), 32.0);
  EXPECT_DOUBLE_EQ(c.at("hmean_ipc").as_number(), 1.5);
}

TEST(PipelineObservability, WarmupNeverLeaksIntoPostResetMetrics) {
  std::vector<trace::BenchmarkProfile> workload{trace::profile_or_throw("equake"),
                                                trace::profile_or_throw("art")};
  smt::MachineConfig mc;
  mc.thread_count = 2;
  mc.scheduler.kind = core::SchedulerKind::kTwoOpBlockOoo;
  mc.scheduler.iq_entries = 16;
  mc.interval_cycles = 500;  // interval telemetry is part of the contract
  smt::Pipeline pipe(mc, workload, 1);

  const auto read = [&pipe](std::string_view name) {
    for (const MetricSnapshot& m : pipe.metrics()) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "no metric named " << name;
    return MetricSnapshot{};
  };
  pipe.run(3'000);  // warm-up
  ASSERT_GT(read("pipeline.cycles").value, 0.0);
  ASSERT_GT(read("occupancy.iq").count, 0u);
  ASSERT_FALSE(pipe.interval_engine().records().empty());
  const std::uint64_t streamed_before_reset =
      pipe.interval_engine().captured_total();
  ASSERT_GT(streamed_before_reset, 0u);

  pipe.reset_stats();

  // The interval ring and phase tables are statistics too: a post-warm-up
  // reset empties them (only the stream cursor, an I/O position, survives).
  EXPECT_TRUE(pipe.interval_engine().records().empty());
  EXPECT_EQ(pipe.interval_engine().captured(), 0u);
  EXPECT_EQ(pipe.interval_engine().unique_phases(0), 0u);
  EXPECT_EQ(pipe.interval_engine().phase_changes(1), 0u);
  EXPECT_EQ(pipe.interval_engine().captured_total(), streamed_before_reset);

  // Every counter-like metric in every group reads zero after the reset.
  for (const MetricSnapshot& m : pipe.metrics()) {
    if (m.kind == MetricKind::kCounter) {
      EXPECT_DOUBLE_EQ(m.value, 0.0) << m.name;
    } else if (m.kind == MetricKind::kRatio) {
      EXPECT_EQ(m.events, 0u) << m.name;
      EXPECT_EQ(m.opportunities, 0u) << m.name;
    } else if (m.kind == MetricKind::kSampled ||
               m.kind == MetricKind::kHistogram) {
      EXPECT_EQ(m.count, 0u) << m.name;
    }
  }

  // The measured window after the reset is self-consistent: the sampled
  // occupancy gauges saw exactly one sample per measured cycle.
  pipe.run(2'000);
  EXPECT_EQ(read("occupancy.iq").count, pipe.cycles());
  EXPECT_EQ(read("occupancy.rob.0").count, pipe.cycles());
  EXPECT_DOUBLE_EQ(read("pipeline.cycles").value,
                   static_cast<double>(pipe.cycles()));
  EXPECT_GT(read("pipeline.committed").value, 0.0);
}

}  // namespace
}  // namespace msim
