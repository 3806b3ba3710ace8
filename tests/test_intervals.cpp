// Interval telemetry engine, progress bus and streaming export
// (docs/OBSERVABILITY.md, "Interval telemetry & progress").
//
// The contracts under test:
//
//   1. IntervalEngine delta math: a record is exactly the difference of two
//      cumulative boundary samples, with well-defined rates and means.
//   2. The record ring is bounded (oldest evicted, counted as dropped) and
//      reset_stats clears everything except the captured_total stream
//      cursor.
//   3. Phase fingerprints are pure functions of the quantized features;
//      the first-seen table assigns stable ids and the change detector
//      fires only on real feature changes.
//   4. Engine state round-trips through persist::Archive bit-identically.
//   5. persist::IntervalStreamWriter: fresh streams, torn-tail truncation
//      on resume, and refusal of mismatched or missing .part files.
//   6. ProgressBus fan-out/counters and the JSONL event line format.
//   7. Chrome trace export parses back as trace-event JSON.
//   8. End to end through run_simulation: records appear in RunResult, an
//      interrupted+resumed run's JSONL equals the straight run's byte for
//      byte, fingerprints hit pinned goldens across seeds, and sweep
//      results carry identical interval data at any job count.
//   9. The CLI spec is self-consistent (every known key documented).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/interval.hpp"
#include "obs/progress.hpp"
#include "obs/timer.hpp"
#include "persist/interval_stream.hpp"
#include "persist/signal.hpp"
#include "sim/cli_spec.hpp"
#include "sim/experiment.hpp"
#include "sim/run.hpp"
#include "smt/pipeline.hpp"

namespace msim {
namespace {

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "-" + std::to_string(::getpid())))
      .string();
}

/// Removes a temp file (and its .part sibling) even when an assertion
/// bails out of the test early.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) : path_(temp_path(stem)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".part", ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---- 1/2/3. engine unit behavior -------------------------------------------

/// A synthetic boundary sample: totals scale linearly so consecutive
/// boundaries have known deltas.
obs::CumulativeSample boundary(std::uint64_t cycle, unsigned threads,
                               std::uint64_t committed_per_thread) {
  obs::CumulativeSample c;
  c.cycle = cycle;
  c.fetched = threads * committed_per_thread + cycle / 10;
  c.dispatched = threads * committed_per_thread;
  c.issued = threads * committed_per_thread;
  c.iq_occ_sum = 24.0 * static_cast<double>(cycle);
  c.iq_occ_count = cycle;
  c.dab_occ_sum = 0.5 * static_cast<double>(cycle);
  c.dab_occ_count = cycle;
  c.l1d_misses = cycle / 4;
  c.l2_misses = cycle / 16;
  c.branches = cycle / 5;
  c.mispredicts = cycle / 50;
  for (unsigned t = 0; t < threads; ++t) {
    obs::CumulativeSample::Thread th;
    th.committed = committed_per_thread + t;
    th.fetched = committed_per_thread + 2 * t;
    // Denominators divide the 100-cycle boundary grid evenly, so repeated
    // intervals have byte-identical stall fractions (the phase tests rely
    // on "same behavior => same fingerprint").
    th.ndi_blocked_cycles = cycle / 2;
    th.iq_full_cycles = cycle / 4;
    th.rob_full_cycles = cycle / 20;
    th.lsq_full_cycles = 0;
    th.fetch_starved_cycles = cycle / 3;
    th.rob_occ_sum = 40.0 * static_cast<double>(cycle);
    th.rob_occ_count = cycle;
    th.lsq_occ_sum = 10.0 * static_cast<double>(cycle);
    th.lsq_occ_count = cycle;
    th.loads = committed_per_thread / 4;
    c.threads.push_back(th);
    c.committed += th.committed;
  }
  return c;
}

TEST(IntervalEngine, RecordIsTheDeltaOfTwoBoundaries) {
  obs::IntervalEngine engine;
  engine.configure({1'000, 16}, 2);
  ASSERT_TRUE(engine.enabled());

  engine.capture(boundary(1'000, 2, 400));
  engine.capture(boundary(2'000, 2, 1'000));
  ASSERT_EQ(engine.records().size(), 2u);

  const obs::IntervalRecord& r = engine.records().back();
  EXPECT_EQ(r.index, 1u);
  EXPECT_EQ(r.start_cycle, 1'000u);
  EXPECT_EQ(r.end_cycle, 2'000u);
  // committed: two threads go 400+t -> 1000+t, so delta is 2*600.
  EXPECT_EQ(r.committed, 1'200u);
  EXPECT_DOUBLE_EQ(r.ipc, 1.2);
  // Occupancy integrals are linear in cycle, so interval means are flat.
  EXPECT_DOUBLE_EQ(r.iq_occupancy, 24.0);
  EXPECT_DOUBLE_EQ(r.dab_occupancy, 0.5);
  // 250 extra L1D misses over 1200 committed = 208.33 MPKI.
  EXPECT_NEAR(r.l1d_mpki, 1000.0 * 250.0 / 1200.0, 1e-9);
  EXPECT_NEAR(r.l2_mpki, 1000.0 * (125.0 - 62.0) / 1200.0, 1e-9);
  // 200 branches, 20 mispredicts in the window.
  EXPECT_NEAR(r.mispredict_rate, (40.0 - 20.0) / (400.0 - 200.0), 1e-9);

  ASSERT_EQ(r.threads.size(), 2u);
  EXPECT_EQ(r.threads[0].committed, 600u);
  EXPECT_DOUBLE_EQ(r.threads[0].ipc, 0.6);
  EXPECT_DOUBLE_EQ(r.threads[0].rob_occupancy, 40.0);
  EXPECT_DOUBLE_EQ(r.threads[0].lsq_occupancy, 10.0);
  EXPECT_EQ(r.threads[0].loads, 250u - 100u);
  EXPECT_NE(r.threads[0].phase_fingerprint, 0u);
}

TEST(IntervalEngine, RingIsBoundedAndCountsDrops) {
  obs::IntervalEngine engine;
  engine.configure({100, 2}, 1);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    engine.capture(boundary(100 * i, 1, 50 * i));
  }
  EXPECT_EQ(engine.records().size(), 2u);
  EXPECT_EQ(engine.captured(), 5u);
  EXPECT_EQ(engine.captured_total(), 5u);
  EXPECT_EQ(engine.dropped(), 3u);
  EXPECT_EQ(engine.records().front().index, 3u);
  EXPECT_EQ(engine.records().back().index, 4u);
}

TEST(IntervalEngine, ResetClearsEverythingButTheStreamCursor) {
  obs::IntervalEngine engine;
  engine.configure({100, 8}, 1);
  engine.capture(boundary(100, 1, 10));
  engine.capture(boundary(200, 1, 500));  // different phase
  ASSERT_EQ(engine.captured_total(), 2u);
  ASSERT_GE(engine.unique_phases(0), 2u);

  engine.reset_stats(boundary(250, 1, 600));
  EXPECT_TRUE(engine.records().empty());
  EXPECT_EQ(engine.captured(), 0u);
  EXPECT_EQ(engine.dropped(), 0u);
  EXPECT_EQ(engine.captured_total(), 2u) << "stream cursor must survive";
  EXPECT_EQ(engine.unique_phases(0), 0u);
  EXPECT_EQ(engine.phase_changes(0), 0u);

  // The next capture diffs against the reset baseline, restarts indices,
  // and reports no phase change (there is no previous fingerprint).
  engine.capture(boundary(300, 1, 650));
  const obs::IntervalRecord& r = engine.records().front();
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.start_cycle, 250u);
  EXPECT_EQ(r.end_cycle, 300u);
  EXPECT_EQ(r.committed, 50u);
  EXPECT_FALSE(r.threads[0].phase_changed);
  EXPECT_EQ(engine.captured_total(), 3u);
}

TEST(IntervalEngine, PhaseIdsAreFirstSeenAndChangesFireOnRealChanges) {
  obs::IntervalEngine engine;
  engine.configure({100, 16}, 1);
  // A-A-B-A: two distinct behaviors; the return to A must reuse id 0.
  engine.capture(boundary(100, 1, 100));    // A (delta 100)
  engine.capture(boundary(200, 1, 200));    // A (delta 100)
  engine.capture(boundary(300, 1, 1'000));  // B (delta 800)
  engine.capture(boundary(400, 1, 1'100));  // A (delta 100)

  const auto& ring = engine.records();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[0].threads[0].phase_id, 0u);
  EXPECT_FALSE(ring[0].threads[0].phase_changed) << "no previous fingerprint";
  EXPECT_EQ(ring[1].threads[0].phase_id, 0u);
  EXPECT_FALSE(ring[1].threads[0].phase_changed);
  EXPECT_EQ(ring[2].threads[0].phase_id, 1u);
  EXPECT_TRUE(ring[2].threads[0].phase_changed);
  EXPECT_EQ(ring[3].threads[0].phase_id, 0u);
  EXPECT_TRUE(ring[3].threads[0].phase_changed);
  EXPECT_EQ(ring[1].threads[0].phase_fingerprint,
            ring[3].threads[0].phase_fingerprint);
  EXPECT_EQ(engine.unique_phases(0), 2u);
  EXPECT_EQ(engine.phase_changes(0), 2u);
  EXPECT_EQ(engine.phase_id(0), 0u);
}

TEST(PhaseFingerprint, PureAndQuantized) {
  obs::ThreadIntervalSample s;
  s.committed = 500;
  s.ipc = 0.5;
  s.fetch_rate = 0.6;
  s.ndi_blocked_cycles = 300;
  s.iq_full_cycles = 100;
  s.rob_full_cycles = 50;
  s.lsq_full_cycles = 0;
  s.fetch_starved_cycles = 200;
  s.rob_occupancy = 40.25;
  s.lsq_occupancy = 10.75;
  s.loads = 125;

  const std::uint64_t fp = obs::phase_fingerprint(s, 1'000);
  EXPECT_EQ(obs::phase_fingerprint(s, 1'000), fp) << "must be deterministic";

  // A perturbation inside one quantization bucket (1/16 IPC steps) does
  // not move the hash; a whole-bucket jump does.
  obs::ThreadIntervalSample nudged = s;
  nudged.ipc = 0.51;
  EXPECT_EQ(obs::phase_fingerprint(nudged, 1'000), fp);
  obs::ThreadIntervalSample jumped = s;
  jumped.ipc = 1.5;
  EXPECT_NE(obs::phase_fingerprint(jumped, 1'000), fp);
  obs::ThreadIntervalSample occ = s;
  occ.rob_occupancy = 80.0;
  EXPECT_NE(obs::phase_fingerprint(occ, 1'000), fp);
}

// ---- 4. archive round-trip -------------------------------------------------

std::vector<std::string> formatted_ring(const obs::IntervalEngine& engine) {
  std::vector<std::string> out;
  for (const obs::IntervalRecord& r : engine.records()) {
    out.push_back(obs::format_interval_record(r));
  }
  return out;
}

TEST(IntervalEngine, StateRoundTripsThroughArchive) {
  obs::IntervalEngine engine;
  engine.configure({100, 4}, 2);
  for (std::uint64_t i = 1; i <= 6; ++i) {  // overflows the 4-deep ring
    engine.capture(boundary(100 * i, 2, 80 * i));
  }

  persist::Archive save = persist::Archive::saver();
  engine.state_io(save);

  obs::IntervalEngine restored;
  restored.configure({100, 4}, 2);
  persist::Archive load = persist::Archive::loader(save.bytes());
  restored.state_io(load);
  load.expect_end();

  EXPECT_EQ(formatted_ring(restored), formatted_ring(engine));
  EXPECT_EQ(restored.captured(), engine.captured());
  EXPECT_EQ(restored.dropped(), engine.dropped());
  EXPECT_EQ(restored.captured_total(), engine.captured_total());
  EXPECT_EQ(restored.unique_phases(0), engine.unique_phases(0));
  EXPECT_EQ(restored.phase_changes(1), engine.phase_changes(1));

  // Capturing after the restore is indistinguishable from never pausing.
  engine.capture(boundary(700, 2, 700));
  restored.capture(boundary(700, 2, 700));
  EXPECT_EQ(formatted_ring(restored), formatted_ring(engine));

  // A config mismatch is refused, not silently absorbed.
  obs::IntervalEngine wrong;
  wrong.configure({200, 4}, 2);
  persist::Archive reload = persist::Archive::loader(save.bytes());
  EXPECT_THROW(wrong.state_io(reload), persist::PersistError);
}

// ---- 5. the streaming writer ----------------------------------------------

obs::IntervalRecord nth_record(std::uint64_t i) {
  obs::IntervalEngine engine;
  engine.configure({100, 16}, 1);
  for (std::uint64_t k = 1; k <= i + 1; ++k) {
    engine.capture(boundary(100 * k, 1, 60 * k));
  }
  return engine.records().back();
}

TEST(IntervalStreamWriter, FreshStreamFinalizesAtomically) {
  const TempFile file("msim-test-ivstream");
  const obs::IntervalConfig config{100, 16};
  std::string want = obs::format_interval_header(config, 1) + "\n";
  {
    persist::IntervalStreamWriter writer(file.path(), config, 1, 0);
    for (std::uint64_t i = 0; i < 3; ++i) {
      const obs::IntervalRecord r = nth_record(i);
      writer.append(r);
      want += obs::format_interval_record(r) + "\n";
    }
    EXPECT_EQ(writer.written(), 3u);
    // Until finalize, only the .part exists.
    EXPECT_FALSE(std::filesystem::exists(file.path()));
    EXPECT_TRUE(std::filesystem::exists(file.path() + ".part"));
    writer.finalize();
  }
  EXPECT_TRUE(std::filesystem::exists(file.path()));
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".part"));
  EXPECT_EQ(slurp(file.path()), want);
}

TEST(IntervalStreamWriter, ResumeTruncatesTornTailAndContinues) {
  const TempFile file("msim-test-ivresume");
  const obs::IntervalConfig config{100, 16};

  // An interrupted run: three records appended, never finalized, plus a
  // torn half-line from the moment the process died.
  {
    persist::IntervalStreamWriter writer(file.path(), config, 1, 0);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(nth_record(i));
  }
  {
    std::ofstream os(file.path() + ".part", std::ios::app | std::ios::binary);
    os << "{\"i\":3,\"start\":300,\"en";  // torn mid-write
  }

  // The checkpoint said only 2 records were captured: the resume keeps the
  // first 2 complete lines, drops record 3 and the torn tail, appends.
  std::string want = obs::format_interval_header(config, 1) + "\n";
  want += obs::format_interval_record(nth_record(0)) + "\n";
  want += obs::format_interval_record(nth_record(1)) + "\n";
  {
    persist::IntervalStreamWriter writer(file.path(), config, 1, 2);
    const obs::IntervalRecord r = nth_record(2);
    writer.append(r);
    want += obs::format_interval_record(r) + "\n";
    writer.finalize();
  }
  EXPECT_EQ(slurp(file.path()), want);
}

TEST(IntervalStreamWriter, ResumeRefusesMismatchedStreams) {
  const TempFile file("msim-test-ivrefuse");
  const obs::IntervalConfig config{100, 16};

  // No .part at all: the stream cannot be resumed.
  EXPECT_THROW(persist::IntervalStreamWriter(file.path(), config, 1, 1),
               persist::PersistError);

  {
    persist::IntervalStreamWriter writer(file.path(), config, 1, 0);
    writer.append(nth_record(0));
  }
  // Fewer complete records than the checkpoint cursor: refused.
  EXPECT_THROW(persist::IntervalStreamWriter(file.path(), config, 1, 5),
               persist::PersistError);
  // A different configuration writes a different header: refused.
  EXPECT_THROW(
      persist::IntervalStreamWriter(file.path(), {200, 16}, 1, 1),
      persist::PersistError);
  EXPECT_THROW(persist::IntervalStreamWriter(file.path(), config, 2, 1),
               persist::PersistError);
  // The matching resume still works.
  persist::IntervalStreamWriter ok(file.path(), config, 1, 1);
  ok.finalize();
}

// ---- 6. progress bus -------------------------------------------------------

class CollectingSink final : public obs::ProgressSink {
 public:
  void on_event(const obs::ProgressEvent& event) override {
    events.push_back(event);
  }
  std::vector<obs::ProgressEvent> events;
};

TEST(ProgressBus, FansOutAndCountsPerKind) {
  obs::ProgressBus bus;
  CollectingSink a;
  CollectingSink b;
  bus.subscribe(&a);
  bus.subscribe(&b);

  obs::ProgressEvent start(obs::ProgressKind::kRunStart);
  start.label = "gzip,equake";
  bus.publish(start);
  obs::ProgressEvent tick(obs::ProgressKind::kIntervalTick);
  tick.cycle = 5'000;
  tick.committed = 4'000;
  tick.ipc = 0.8;
  bus.publish(tick);
  bus.publish(tick);

  EXPECT_EQ(bus.published(), 3u);
  EXPECT_EQ(bus.published(obs::ProgressKind::kRunStart), 1u);
  EXPECT_EQ(bus.published(obs::ProgressKind::kIntervalTick), 2u);
  EXPECT_EQ(bus.published(obs::ProgressKind::kRunFinish), 0u);
  ASSERT_EQ(a.events.size(), 3u);
  ASSERT_EQ(b.events.size(), 3u);
  EXPECT_EQ(a.events[0].label, "gzip,equake");
  EXPECT_EQ(b.events[1].cycle, 5'000u);
}

TEST(JsonlProgressSink, FormatsEventsAsStableSingleLines) {
  obs::ProgressEvent start(obs::ProgressKind::kRunStart);
  start.label = "gzip,equake";
  EXPECT_EQ(obs::JsonlProgressSink::format(start),
            R"({"event":"run_start","label":"gzip,equake"})");

  obs::ProgressEvent finish(obs::ProgressKind::kCellFinish);
  finish.label = "traditional iq=32 2T-mix1";
  finish.done = 3;
  finish.total = 24;
  finish.ok = false;
  finish.detail = "hang watchdog";
  const JsonValue v =
      JsonValue::parse(obs::JsonlProgressSink::format(finish));
  EXPECT_EQ(v.at("event").as_string(), "cell_finish");
  EXPECT_EQ(v.at("done").as_number(), 3.0);
  EXPECT_EQ(v.at("total").as_number(), 24.0);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("detail").as_string(), "hang watchdog");

  // Successful events omit ok/detail and zero-valued fields entirely.
  obs::ProgressEvent tick(obs::ProgressKind::kIntervalTick);
  tick.cycle = 1'000;
  const JsonValue t = JsonValue::parse(obs::JsonlProgressSink::format(tick));
  EXPECT_FALSE(t.contains("ok"));
  EXPECT_FALSE(t.contains("detail"));
  EXPECT_FALSE(t.contains("committed"));
  EXPECT_EQ(t.at("cycle").as_number(), 1'000.0);
}

// ---- 7. chrome trace -------------------------------------------------------

TEST(ChromeTrace, SpansParseBackAsTraceEventJson) {
  obs::TimerRegistry timers;
  timers.enable_spans();
  {
    const obs::ScopeTimer outer(timers, "sweep");
    const obs::ScopeTimer inner(timers, "cell:traditional iq=32");
  }
  ASSERT_EQ(timers.spans().size(), 2u);

  const JsonValue doc = JsonValue::parse(obs::format_chrome_trace(timers));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("cat").as_string(), "msim");
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 1.0) << "zero-width spans vanish";
    EXPECT_EQ(e.at("pid").as_number(), 1.0);
  }
  // ScopeTimer destruction order: inner closes first.
  EXPECT_EQ(events[0].at("name").as_string(), "cell:traditional iq=32");
  EXPECT_EQ(events[1].at("name").as_string(), "sweep");
}

TEST(ChromeTrace, DisabledRegistryRecordsNothing) {
  obs::TimerRegistry timers;
  {
    const obs::ScopeTimer t(timers, "run");
  }
  EXPECT_TRUE(timers.spans().empty());
  EXPECT_GT(timers.seconds("run"), 0.0) << "stage totals still accumulate";
}

// ---- 8. end to end through run_simulation / run_sweep ----------------------

sim::RunConfig small_run_config() {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake"};
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.seed = 1;
  cfg.warmup = 5'000;
  cfg.horizon = 20'000;
  cfg.interval_cycles = 1'000;
  return cfg;
}

TEST(RunSimulationIntervals, RecordsLandInTheResultDeterministically) {
  const sim::RunConfig cfg = small_run_config();
  const sim::RunResult a = sim::run_simulation(cfg);
  ASSERT_FALSE(a.intervals.empty());
  for (const obs::IntervalRecord& r : a.intervals) {
    EXPECT_EQ(r.end_cycle % cfg.interval_cycles, 0u);
    EXPECT_GT(r.end_cycle, r.start_cycle);
    EXPECT_LE(r.end_cycle - r.start_cycle, cfg.interval_cycles);
    std::uint64_t committed = 0;
    for (const obs::ThreadIntervalSample& t : r.threads) {
      committed += t.committed;
    }
    EXPECT_EQ(committed, r.committed);
  }

  const sim::RunResult b = sim::run_simulation(cfg);
  ASSERT_EQ(b.intervals.size(), a.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(obs::format_interval_record(b.intervals[i]),
              obs::format_interval_record(a.intervals[i]));
  }
  EXPECT_EQ(b.intervals_dropped, a.intervals_dropped);
}

TEST(RunSimulationIntervals, ProgressBusSeesTheWholeRun) {
  sim::RunConfig cfg = small_run_config();
  obs::ProgressBus bus;
  CollectingSink sink;
  bus.subscribe(&sink);
  cfg.progress_bus = &bus;

  const sim::RunResult r = sim::run_simulation(cfg);
  EXPECT_EQ(bus.published(obs::ProgressKind::kRunStart), 1u);
  EXPECT_EQ(bus.published(obs::ProgressKind::kRunFinish), 1u);
  std::uint64_t ticks = 0;
  for (const obs::ProgressEvent& e : sink.events) {
    if (e.kind == obs::ProgressKind::kIntervalTick) ++ticks;
  }
  EXPECT_EQ(bus.published(obs::ProgressKind::kIntervalTick), ticks);
  // The bus saw every capture, including warm-up intervals that the
  // post-warm-up reset later cleared from the result's ring.
  EXPECT_GE(ticks, r.intervals.size() + r.intervals_dropped);
  EXPECT_GT(ticks, 0u);
  ASSERT_FALSE(sink.events.empty());
  EXPECT_EQ(sink.events.front().kind, obs::ProgressKind::kRunStart);
  EXPECT_EQ(sink.events.back().kind, obs::ProgressKind::kRunFinish);
  EXPECT_TRUE(sink.events.back().ok);
  EXPECT_GT(sink.events.back().cycle, 0u);
}

TEST(RunSimulationIntervals, InterruptedJsonlMatchesStraightRunByteForByte) {
  const sim::RunConfig base = small_run_config();

  const TempFile straight_file("msim-test-ivjson-straight");
  sim::RunConfig straight = base;
  straight.interval_json = straight_file.path();
  (void)sim::run_simulation(straight);
  const std::string want = slurp(straight_file.path());
  ASSERT_FALSE(want.empty());

  const TempFile chained_file("msim-test-ivjson-chained");
  const TempFile ckpt("msim-test-ivjson-ckpt");

  // Leg 1: interrupt mid-warm-up; the .part stays behind.
  sim::RunConfig leg1 = base;
  leg1.interval_json = chained_file.path();
  leg1.checkpoint_path = ckpt.path();
  leg1.checkpoint_exit_cycles = 3'000;
  EXPECT_THROW((void)sim::run_simulation(leg1), persist::Interrupted);
  EXPECT_TRUE(std::filesystem::exists(chained_file.path() + ".part"));
  EXPECT_FALSE(std::filesystem::exists(chained_file.path()));

  // Leg 2: resume, interrupt again mid-measurement.
  sim::RunConfig leg2 = base;
  leg2.interval_json = chained_file.path();
  leg2.resume_path = ckpt.path();
  leg2.checkpoint_path = ckpt.path();
  leg2.checkpoint_exit_cycles = 11'000;
  EXPECT_THROW((void)sim::run_simulation(leg2), persist::Interrupted);

  // Leg 3: resume to completion; finalize renames .part into place.
  sim::RunConfig leg3 = base;
  leg3.interval_json = chained_file.path();
  leg3.resume_path = ckpt.path();
  (void)sim::run_simulation(leg3);

  EXPECT_FALSE(std::filesystem::exists(chained_file.path() + ".part"));
  EXPECT_EQ(slurp(chained_file.path()), want)
      << "resumed interval stream differs from the uninterrupted run's";
}

TEST(RunConfigValidate, IntervalJsonNeedsIntervalCycles) {
  sim::RunConfig cfg = small_run_config();
  cfg.interval_cycles = 0;
  cfg.interval_json = "somewhere.jsonl";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.interval_cycles = 1'000;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MachineConfigValidate, IntervalRingNeedsASlot) {
  smt::MachineConfig mc;
  mc.interval_cycles = 1'000;
  mc.interval_ring_capacity = 0;
  EXPECT_THROW(mc.validate(), std::invalid_argument);
  mc.interval_ring_capacity = 1;
  EXPECT_NO_THROW(mc.validate());
  mc.interval_cycles = 0;
  mc.interval_ring_capacity = 0;  // fine while telemetry is off
  EXPECT_NO_THROW(mc.validate());
}

/// Per-thread fingerprints of the final interval record of a run: the
/// quantity pinned below.  Changing the fingerprint feature vector, the
/// quantizers or the interval math shows up here first.
std::vector<std::uint64_t> final_fingerprints(
    std::initializer_list<const char*> benchmarks, std::uint64_t seed) {
  sim::RunConfig cfg;
  cfg.benchmarks.assign(benchmarks.begin(), benchmarks.end());
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.seed = seed;
  cfg.warmup = 5'000;
  cfg.horizon = 20'000;
  cfg.interval_cycles = 2'000;
  const sim::RunResult r = sim::run_simulation(cfg);
  std::vector<std::uint64_t> out;
  for (const obs::ThreadIntervalSample& t : r.intervals.back().threads) {
    out.push_back(t.phase_fingerprint);
  }
  return out;
}

std::string hex_list(const std::vector<std::uint64_t>& v) {
  std::ostringstream os;
  os << std::hex;
  for (const std::uint64_t x : v) os << "0x" << x << "ULL, ";
  return os.str();
}

TEST(GoldenPhaseFingerprints, TwoThreadAcrossSeeds) {
  const std::vector<std::vector<std::uint64_t>> want = {
      {0x1d5da5adc14baca2ULL, 0xa25726c623c70506ULL},
      {0xb29abbdc36e98426ULL, 0x3c493d66a299cbbdULL},
      {0x1245725aaa5a84e2ULL, 0x3ca3dca772d6291cULL},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto got = final_fingerprints({"gzip", "equake"}, seed);
    EXPECT_EQ(got, want[seed - 1])
        << "seed " << seed << " actual: " << hex_list(got);
  }
}

TEST(GoldenPhaseFingerprints, FourThreadAcrossSeeds) {
  const std::vector<std::vector<std::uint64_t>> want = {
      {0x4977065dfca134adULL, 0x7782aeed2c9b30f8ULL, 0x26975786aceeb8ffULL,
       0x83f504e46f18651bULL},
      {0xff9835e1c05897e9ULL, 0x90282cf2f9af3c7cULL, 0x6634fcfe679cd47dULL,
       0x44619673995ecc81ULL},
      {0xc0b52c9a69d69d03ULL, 0x346941182a68c3b4ULL, 0xb35847d1a2071153ULL,
       0x2a5be56444c9cbbaULL},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto got = final_fingerprints({"gzip", "equake", "gcc", "mesa"},
                                        seed);
    EXPECT_EQ(got, want[seed - 1])
        << "seed " << seed << " actual: " << hex_list(got);
  }
}

TEST(SweepIntervals, IdenticalAtAnyJobCountAndCountedOnTheBus) {
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32};
  req.base.warmup = 3'000;
  req.base.horizon = 8'000;
  req.base.seed = 1;
  req.base.interval_cycles = 2'000;

  auto all_interval_lines = [](const std::vector<sim::SweepCell>& cells) {
    std::vector<std::string> out;
    for (const sim::SweepCell& cell : cells) {
      for (const sim::MixResult& mix : cell.mixes) {
        for (const obs::IntervalRecord& r : mix.raw.intervals) {
          out.push_back(obs::format_interval_record(r));
        }
      }
    }
    return out;
  };

  obs::ProgressBus bus;
  sim::SweepRequest serial = req;
  serial.jobs = 1;
  serial.progress_bus = &bus;
  sim::BaselineCache serial_baselines(serial.base);
  const auto serial_cells = run_sweep(serial, serial_baselines);
  const auto want = all_interval_lines(serial_cells);
  ASSERT_FALSE(want.empty());

  const std::uint64_t total_cells =
      bus.published(obs::ProgressKind::kCellFinish);
  EXPECT_EQ(bus.published(obs::ProgressKind::kSweepStart), 1u);
  EXPECT_EQ(bus.published(obs::ProgressKind::kSweepFinish), 1u);
  EXPECT_EQ(total_cells, 24u) << "12 mixes x 2 kinds";

  sim::SweepRequest wide = req;
  wide.jobs = 4;
  sim::BaselineCache wide_baselines(wide.base);
  EXPECT_EQ(all_interval_lines(run_sweep(wide, wide_baselines)), want);
}

// ---- 9. the CLI spec is self-consistent ------------------------------------

TEST(CliSpec, EveryKnownKeyIsDocumentedInTheUsageText) {
  const std::string usage(sim::cli_usage());
  for (const std::string_view key : sim::cli_known_keys()) {
    std::string flag = "--" + std::string(key);
    for (char& c : flag) {
      if (c == '_') c = '-';
    }
    const bool documented =
        usage.find(std::string(key) + "=") != std::string::npos ||
        usage.find(flag) != std::string::npos;
    EXPECT_TRUE(documented) << "knob '" << key
                            << "' is accepted but absent from --help";
  }
}

TEST(CliSpec, ValueFlagsAreKnownKeysAndKeysAreUnique) {
  const auto keys = sim::cli_known_keys();
  for (const std::string_view flag : sim::cli_value_flags()) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), flag), keys.end())
        << "value flag '" << flag << "' is not an accepted key";
  }
  std::vector<std::string_view> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate known key";
  for (const std::string_view knob :
       {"interval", "interval_json", "progress", "progress_json",
        "chrome_trace"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), knob), keys.end())
        << "observability knob '" << knob << "' missing from the CLI";
  }
}

}  // namespace
}  // namespace msim
