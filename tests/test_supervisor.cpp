// Process-isolated sweep execution (docs/ROBUSTNESS.md).
//
// The contract under test, from the bottom up:
//
//   1. BackoffPolicy: deterministic, bounded, wall-clock-free respawn
//      delays.
//   2. The worker pipe protocol: framed messages survive arbitrary
//      fragmentation; truncated payloads fail loudly; chaos specs parse.
//   3. SweepSupervisor against a synthetic CellFn: happy path at several
//      worker counts, SIGKILL/SIGSEGV/hang faults detected and retried,
//      persistent faults exhausting retries into SupervisorFailures with
//      diagnostic bundles, per-cell wall-clock timeouts; workers that exit
//      at their last cell and hold no descriptor of the forking process.
//   4. run_sweep(isolation=process): byte-identical to the thread backend
//      at any worker count, chaos-faulted sweeps byte-identical on every
//      surviving cell, failed cells attributed to the exact injected grid
//      index, the sweep process as the journal's one writer + resume,
//      and workers that never wait on a baseline another thread of the
//      forking process is computing.
//   5. The PR's robustness satellites: SweepJournal torn-tail truncation
//      and reset_signals_in_forked_child.
//
// Every forked child here either _exits inside supervisor code or is
// SIGKILLed; no worker process ever returns into gtest.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/archive.hpp"
#include "obs/progress.hpp"
#include "persist/journal.hpp"
#include "persist/signal.hpp"
#include "robust/backoff.hpp"
#include "robust/supervisor.hpp"
#include "robust/worker_protocol.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "trace/mixes.hpp"

namespace msim {
namespace {

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "-" + std::to_string(::getpid())))
      .string();
}

/// Removes a temp file even when an assertion bails out of the test early.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) : path_(temp_path(stem)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// 1. BackoffPolicy
// ---------------------------------------------------------------------------

TEST(BackoffPolicy, NoDelayBeforeTheFirstDeath) {
  robust::BackoffPolicy policy;
  EXPECT_EQ(policy.delay_ms(0, 0), 0u);
  EXPECT_EQ(policy.delay_ms(7, 0), 0u);
}

TEST(BackoffPolicy, DeterministicForIdenticalInputs) {
  robust::BackoffPolicy policy;
  for (unsigned slot = 0; slot < 4; ++slot) {
    for (unsigned deaths = 1; deaths < 8; ++deaths) {
      EXPECT_EQ(policy.delay_ms(slot, deaths), policy.delay_ms(slot, deaths));
    }
  }
}

TEST(BackoffPolicy, GrowsExponentiallyAndSaturatesAtMax) {
  robust::BackoffPolicy policy;
  policy.base_ms = 50;
  policy.max_ms = 400;
  policy.jitter_pct = 0;  // isolate the exponential shape
  EXPECT_EQ(policy.delay_ms(0, 1), 50u);
  EXPECT_EQ(policy.delay_ms(0, 2), 100u);
  EXPECT_EQ(policy.delay_ms(0, 3), 200u);
  EXPECT_EQ(policy.delay_ms(0, 4), 400u);
  EXPECT_EQ(policy.delay_ms(0, 5), 400u);   // capped
  EXPECT_EQ(policy.delay_ms(0, 63), 400u);  // shift saturates, no overflow
}

TEST(BackoffPolicy, JitterStaysWithinTheConfiguredBand) {
  robust::BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 100'000;
  policy.jitter_pct = 25;
  for (unsigned slot = 0; slot < 8; ++slot) {
    const std::uint64_t base = 100;  // deaths=1
    const std::uint64_t got = policy.delay_ms(slot, 1);
    EXPECT_GE(got, base);
    EXPECT_LE(got, base + base * 25 / 100);
  }
}

TEST(BackoffPolicy, DifferentSlotsJitterDifferently) {
  robust::BackoffPolicy policy;
  policy.base_ms = 1000;
  policy.max_ms = 100'000;
  policy.jitter_pct = 50;
  std::set<std::uint64_t> delays;
  for (unsigned slot = 0; slot < 16; ++slot) delays.insert(policy.delay_ms(slot, 1));
  EXPECT_GT(delays.size(), 1u) << "jitter ignores the slot";
}

// ---------------------------------------------------------------------------
// 2. Worker protocol + chaos plans
// ---------------------------------------------------------------------------

/// A kCellDone payload with every field away from its default.
std::vector<std::uint8_t> sample_cell_done() {
  robust::CellOutcome outcome;
  outcome.ok = false;
  outcome.attempts = 3;
  outcome.error = "err";
  outcome.payload = {0xde, 0xad, 0xbe, 0xef};
  return robust::encode_cell_done(42, outcome);
}

TEST(WorkerProtocol, FramesSurviveByteAtATimeDelivery) {
  std::vector<std::uint8_t> wire;
  robust::encode_frame(robust::WorkerMsg::kCellDone, sample_cell_done(), wire);
  robust::encode_frame(robust::WorkerMsg::kShardDone, {}, wire);

  robust::FrameReader reader;
  std::vector<robust::Frame> frames;
  for (const std::uint8_t byte : wire) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, robust::WorkerMsg::kCellDone);
  EXPECT_EQ(frames[1].type, robust::WorkerMsg::kShardDone);

  const auto [cell, outcome] = robust::decode_cell_done(frames[0].payload);
  EXPECT_EQ(cell, 42u);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.error, "err");
  EXPECT_EQ(outcome.payload, (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(robust::decode_cell_start(robust::encode_cell_start(7)), 7u);
}

TEST(WorkerProtocol, TruncatedPayloadThrowsInsteadOfReadingGarbage) {
  const std::vector<std::uint8_t> full = sample_cell_done();
  for (std::size_t n = 0; n < full.size(); ++n) {
    SCOPED_TRACE("truncated to " + std::to_string(n) + " bytes");
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)robust::decode_cell_done(cut), persist::PersistError);
  }
  std::vector<std::uint8_t> padded = full;
  padded.push_back(0);
  EXPECT_THROW((void)robust::decode_cell_done(padded), persist::PersistError);
}

TEST(ChaosPlan, ParsesActionsCellsAndPersistence) {
  const auto plan = robust::ChaosPlan::parse("kill@5,segv@13,hang@21,kill@2!");
  ASSERT_EQ(plan.faults.size(), 4u);
  ASSERT_NE(plan.fault_for(5), nullptr);
  EXPECT_EQ(plan.fault_for(5)->action, robust::WorkerFault::Action::kKill);
  EXPECT_FALSE(plan.fault_for(5)->persistent);
  EXPECT_EQ(plan.fault_for(13)->action, robust::WorkerFault::Action::kSegv);
  EXPECT_EQ(plan.fault_for(21)->action, robust::WorkerFault::Action::kHang);
  ASSERT_NE(plan.fault_for(2), nullptr);
  EXPECT_TRUE(plan.fault_for(2)->persistent);
  EXPECT_EQ(plan.fault_for(99), nullptr);
  EXPECT_TRUE(robust::ChaosPlan::parse("").empty());
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(robust::ChaosPlan::parse("explode@3"), std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill@"), std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill@abc"), std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill@-1"), std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill@99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill"), std::invalid_argument);
  EXPECT_THROW(robust::ChaosPlan::parse("kill@3,segv@3"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 3. SweepSupervisor against a synthetic CellFn
// ---------------------------------------------------------------------------

/// Deterministic payload for cell i; any worker at any incarnation must
/// produce exactly these bytes.
std::vector<std::uint8_t> cell_payload(std::size_t i) {
  return {0x5e, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i * 17)};
}

robust::CellFn synthetic_cells() {
  return [](std::size_t i) {
    robust::CellOutcome out;
    out.payload = cell_payload(i);
    return out;
  };
}

robust::SupervisorConfig base_config(std::size_t cells, unsigned workers) {
  robust::SupervisorConfig config;
  config.total_cells = cells;
  config.workers = workers;
  config.retries = 1;
  // Fast respawns and hang detection: the defaults are tuned for real
  // sweeps, not unit tests.
  config.tuning.heartbeat_interval_ms = 10;
  config.tuning.heartbeat_timeout_ms = 500;
  config.tuning.backoff.base_ms = 10;
  config.tuning.backoff.max_ms = 50;
  return config;
}

void expect_all_cells_ok(const robust::SupervisorReport& report,
                         std::size_t cells) {
  EXPECT_TRUE(report.process_failures.empty());
  ASSERT_EQ(report.outcomes.size(), cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const auto it = report.outcomes.find(i);
    ASSERT_NE(it, report.outcomes.end()) << "cell " << i << " never reported";
    EXPECT_TRUE(it->second.ok);
    EXPECT_EQ(it->second.payload, cell_payload(i)) << "cell " << i;
  }
}

TEST(SweepSupervisor, RunsEveryCellAtAnyWorkerCount) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    robust::SweepSupervisor supervisor(base_config(13, workers));
    const auto report = supervisor.run(synthetic_cells());
    expect_all_cells_ok(report, 13);
    EXPECT_EQ(report.workers_spawned, std::min<std::size_t>(workers, 13));
    EXPECT_EQ(report.worker_deaths, 0u);
  }
}

TEST(SweepSupervisor, WorkersExitAtTheirLastCellNotAtTheNextHeartbeat) {
  // A heartbeat period far longer than the whole sweep: a worker that waits
  // out its heartbeat sleep before exiting would hold run() for >= 2 s.
  // Each cell takes a few ms, so every worker's heartbeat thread is already
  // asleep when the last cell finishes.
  auto config = base_config(6, 2);
  config.tuning.heartbeat_interval_ms = 2000;
  config.tuning.heartbeat_timeout_ms = 10'000;
  robust::SweepSupervisor supervisor(std::move(config));
  const auto start = std::chrono::steady_clock::now();
  const auto report = supervisor.run([](std::size_t i) {
    ::usleep(20'000);
    robust::CellOutcome out;
    out.payload = cell_payload(i);
    return out;
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  expect_all_cells_ok(report, 6);
  EXPECT_EQ(report.worker_deaths, 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "run() took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms: a worker lingered after its last cell";
}

TEST(SweepSupervisor, WorkersCloseTheDescriptorsTheyInherit) {
  // Under msim_serve this descriptor could be another sweep's worker pipe,
  // which its supervisor reads to EOF, or a client's socket.  Each cell
  // reports, from inside its worker, whether the forking process's
  // descriptor is still open there.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  robust::SweepSupervisor supervisor(base_config(4, 2));
  const auto report = supervisor.run([held = fds[1]](std::size_t) {
    robust::CellOutcome out;
    out.payload = {static_cast<std::uint8_t>(::fcntl(held, F_GETFD) == -1)};
    return out;
  });
  (void)::close(fds[0]);
  (void)::close(fds[1]);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& [i, outcome] : report.outcomes) {
    EXPECT_EQ(outcome.payload, std::vector<std::uint8_t>{1})
        << "cell " << i << "'s worker still holds an inherited descriptor";
  }
}

TEST(SweepSupervisor, CompletedCellsAreNeverRerun) {
  auto config = base_config(8, 2);
  config.completed = {0, 2, 4, 6};
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run(synthetic_cells());
  EXPECT_TRUE(report.process_failures.empty());
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const std::size_t i : {1u, 3u, 5u, 7u}) {
    EXPECT_TRUE(report.outcomes.count(i)) << "cell " << i;
  }
  EXPECT_EQ(report.outcomes.count(0), 0u);
}

TEST(SweepSupervisor, WorkersRunTheirShardInTheGivenOrder) {
  // Each cell reports how many cells its worker ran before it, counted in
  // that worker's own copy of the cell function.
  auto config = base_config(8, 2);
  config.order = {7, 2, 5, 0, 3, 6, 1, 4};
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run([ran = std::uint8_t{0}](std::size_t) mutable {
    robust::CellOutcome out;
    out.payload = {ran++};
    return out;
  });
  // Worker 0 owns the even cells and worker 1 the odd ones, whatever the
  // order; each runs its own in that order.
  const std::map<std::size_t, std::uint8_t> position = {
      {2, 0}, {0, 1}, {6, 2}, {4, 3}, {7, 0}, {5, 1}, {3, 2}, {1, 3}};
  EXPECT_TRUE(report.process_failures.empty());
  ASSERT_EQ(report.outcomes.size(), 8u);
  for (const auto& [i, outcome] : report.outcomes) {
    EXPECT_EQ(outcome.payload, std::vector<std::uint8_t>{position.at(i)}) << "cell " << i;
  }
}

TEST(SweepSupervisor, InWorkerFailuresAreOutcomesNotProcessFailures) {
  auto config = base_config(6, 2);
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run([](std::size_t i) {
    robust::CellOutcome out;
    if (i == 3) {
      out.ok = false;
      out.error = "synthetic cell failure";
      out.attempts = 2;
    } else {
      out.payload = cell_payload(i);
    }
    return out;
  });
  EXPECT_TRUE(report.process_failures.empty());
  EXPECT_EQ(report.worker_deaths, 0u);
  ASSERT_EQ(report.outcomes.size(), 6u);
  EXPECT_FALSE(report.outcomes.at(3).ok);
  EXPECT_EQ(report.outcomes.at(3).error, "synthetic cell failure");
  EXPECT_EQ(report.outcomes.at(3).attempts, 2u);
}

TEST(SweepSupervisor, SigkilledWorkerIsRespawnedAndTheCellRetried) {
  auto config = base_config(9, 3);
  config.chaos = robust::ChaosPlan::parse("kill@4");
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run(synthetic_cells());
  expect_all_cells_ok(report, 9);
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_GE(report.workers_spawned, 4u);  // 3 initial + >=1 respawn
}

TEST(SweepSupervisor, SegvIsJustAnotherDeath) {
  auto config = base_config(5, 2);
  config.chaos = robust::ChaosPlan::parse("segv@1");
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run(synthetic_cells());
  expect_all_cells_ok(report, 5);
  EXPECT_GE(report.worker_deaths, 1u);
}

TEST(SweepSupervisor, HangingWorkerIsDetectedByMissedHeartbeats) {
  auto config = base_config(6, 2);
  config.chaos = robust::ChaosPlan::parse("hang@2");
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run(synthetic_cells());
  expect_all_cells_ok(report, 6);
  EXPECT_GE(report.worker_deaths, 1u);
}

TEST(SweepSupervisor, PersistentFaultExhaustsRetriesIntoADiagnosedFailure) {
  auto config = base_config(7, 2);
  config.retries = 1;
  config.chaos = robust::ChaosPlan::parse("kill@3!");
  config.cell_label = [](std::size_t i) { return "cell#" + std::to_string(i); };
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run(synthetic_cells());

  ASSERT_EQ(report.process_failures.size(), 1u);
  const robust::SupervisorFailure& failure = report.process_failures[0];
  EXPECT_EQ(failure.cell, 3u);
  EXPECT_EQ(failure.attempts, 2u);  // retries + 1
  EXPECT_NE(failure.error.find("killed by signal 9"), std::string::npos)
      << failure.error;
  EXPECT_NE(failure.diag.find("\"slot\""), std::string::npos) << failure.diag;
  EXPECT_NE(failure.diag.find("cell#3"), std::string::npos) << failure.diag;

  // Every other cell still completed, bit-exactly.
  EXPECT_EQ(report.outcomes.size(), 6u);
  EXPECT_EQ(report.outcomes.count(3), 0u);
  for (const auto& [i, outcome] : report.outcomes) {
    EXPECT_EQ(outcome.payload, cell_payload(i)) << "cell " << i;
  }
}

TEST(SweepSupervisor, CellTimeoutKillsTheWorkerAndFailsTheCell) {
  auto config = base_config(4, 2);
  config.retries = 0;
  config.cell_timeout_ms = 150;
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run([](std::size_t i) {
    if (i == 1) {
      for (;;) ::usleep(50'000);  // never finishes; heartbeats keep flowing
    }
    robust::CellOutcome out;
    out.payload = cell_payload(i);
    return out;
  });
  ASSERT_EQ(report.process_failures.size(), 1u);
  EXPECT_EQ(report.process_failures[0].cell, 1u);
  EXPECT_NE(report.process_failures[0].error.find("cell_timeout_ms"),
            std::string::npos)
      << report.process_failures[0].error;
  EXPECT_EQ(report.outcomes.size(), 3u);
}

TEST(SweepSupervisor, ReportedCellsAreNotRerunAfterAWorkerDeath) {
  auto config = base_config(6, 1);
  // The worker reports cells 0-3, then dies at 4; the supervisor drains the
  // dead worker's pipe before respawning, so the new incarnation runs only
  // 4 and 5.  Reruns are observable: the cell function appends to a side
  // file, so a rerun would double a line.
  TempFile side_effects("msim-supervisor-ran");
  config.chaos = robust::ChaosPlan::parse("kill@4");
  const std::string side_path = side_effects.path();
  robust::SweepSupervisor supervisor(std::move(config));
  const auto report = supervisor.run([side_path](std::size_t i) {
    std::ofstream(side_path, std::ios::app) << i << "\n";
    robust::CellOutcome out;
    out.payload = cell_payload(i);
    return out;
  });
  expect_all_cells_ok(report, 6);

  std::ifstream in(side_path);
  std::vector<std::string> ran;
  for (std::string line; std::getline(in, line);) ran.push_back(line);
  EXPECT_EQ(ran, (std::vector<std::string>{"0", "1", "2", "3", "4", "5"}))
      << "a cell reported before the death ran twice";
}

// ---------------------------------------------------------------------------
// 4. run_sweep(isolation=process)
// ---------------------------------------------------------------------------

sim::RunConfig tiny_base() {
  sim::RunConfig cfg;
  cfg.warmup = 1000;
  cfg.horizon = 4000;
  return cfg;
}

sim::SweepRequest small_request(std::uint64_t seed) {
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32, 64};
  req.base = tiny_base();
  req.base.seed = seed;
  return req;
}

std::string sweep_json_of(const std::vector<sim::SweepCell>& cells) {
  std::ostringstream out;
  sim::write_sweep_json(out, cells);
  return out.str();
}

std::vector<sim::SweepCell> run_with(sim::SweepRequest req) {
  sim::BaselineCache baselines(req.base);
  return run_sweep(req, baselines);
}

sim::SweepRequest process_request(std::uint64_t seed, unsigned workers) {
  sim::SweepRequest req = small_request(seed);
  req.isolation = sim::SweepIsolation::kProcess;
  req.workers = workers;
  req.worker_heartbeat_timeout_ms = 500;
  return req;
}

TEST(ProcessSweep, ByteIdenticalToTheThreadBackendAtAnyWorkerCount) {
  // Both backends also report every one of the 48 cells the same way: one
  // start event, one finish event and one progress line each.
  auto run_counted = [](sim::SweepRequest req) {
    obs::ProgressBus bus;
    std::size_t lines = 0;
    req.progress_bus = &bus;
    req.progress = [&lines](std::string_view) { ++lines; };
    std::string json = sweep_json_of(run_with(req));
    EXPECT_EQ(bus.published(obs::ProgressKind::kCellStart), 48u);
    EXPECT_EQ(bus.published(obs::ProgressKind::kCellFinish), 48u);
    EXPECT_EQ(lines, 48u);
    return json;
  };
  const std::string thread_json = run_counted(small_request(11));
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(thread_json, run_counted(process_request(11, workers)));
  }
}

TEST(ProcessSweep, RejectsProcessOnlyKnobsOnTheThreadBackend) {
  sim::BaselineCache baselines(tiny_base());
  {
    sim::SweepRequest req = small_request(1);
    req.workers = 4;
    EXPECT_THROW((void)run_sweep(req, baselines), std::invalid_argument);
  }
  {
    sim::SweepRequest req = small_request(1);
    req.cell_timeout_ms = 1000;
    EXPECT_THROW((void)run_sweep(req, baselines), std::invalid_argument);
  }
  {
    sim::SweepRequest req = small_request(1);
    req.chaos = "kill@0";
    EXPECT_THROW((void)run_sweep(req, baselines), std::invalid_argument);
  }
  {
    sim::SweepRequest req = process_request(1, 2);
    req.isolate_failures = false;
    EXPECT_THROW((void)run_sweep(req, baselines), std::invalid_argument);
  }
  {
    sim::SweepRequest req = process_request(1, 2);
    req.chaos = "kill@100000";  // outside the grid
    EXPECT_THROW((void)run_sweep(req, baselines), std::invalid_argument);
  }
}

TEST(ProcessSweep, SurvivingCellsAreByteIdenticalUnderTransientChaos) {
  // Transient faults (first incarnation only): a SIGKILL and a hang, on
  // cells owned by different workers.  Every cell eventually succeeds, so
  // the whole report — attempts included — must match the fault-free run.
  const std::string clean_json = sweep_json_of(run_with(process_request(5, 4)));
  sim::SweepRequest chaotic = process_request(5, 4);
  chaotic.chaos = "kill@3,hang@10";
  const std::string chaos_json = sweep_json_of(run_with(chaotic));
  EXPECT_EQ(clean_json, chaos_json);
}

TEST(ProcessSweep, PersistentFaultIsAttributedToTheExactInjectedCell) {
  // Grid order is kind-major: cell 17 = kind 0 (traditional), iq index 1
  // (64), mix index 5 of the 2T mix list.
  const auto mixes = trace::mixes_for(2);
  const std::size_t injected = 12 + 5;  // traditional, iq=64, mix 5
  sim::SweepRequest chaotic = process_request(7, 4);
  chaotic.retries = 1;
  chaotic.chaos = "kill@" + std::to_string(injected) + "!";
  const auto cells = run_with(chaotic);

  const auto failures = sim::sweep_failures(cells);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].kind, core::SchedulerKind::kTraditional);
  EXPECT_EQ(failures[0].iq_entries, 64u);
  EXPECT_EQ(failures[0].mix_name, mixes[5].name);
  EXPECT_EQ(failures[0].attempts, 2u);
  EXPECT_NE(failures[0].error.find("killed by signal 9"), std::string::npos);
  EXPECT_NE(failures[0].diag.find("\"slot\""), std::string::npos)
      << "failed cell carries no diagnostic bundle: " << failures[0].diag;

  // Every surviving mix matches the fault-free sweep bit for bit.
  const auto clean = run_with(process_request(7, 4));
  ASSERT_EQ(clean.size(), cells.size());
  for (std::size_t c = 0; c < clean.size(); ++c) {
    ASSERT_EQ(clean[c].mixes.size(), cells[c].mixes.size());
    for (std::size_t m = 0; m < clean[c].mixes.size(); ++m) {
      const sim::MixResult& a = clean[c].mixes[m];
      const sim::MixResult& b = cells[c].mixes[m];
      if (!b.ok) continue;  // the injected cell
      SCOPED_TRACE("cell " + std::to_string(c) + " mix " + a.mix_name);
      EXPECT_EQ(a.throughput_ipc, b.throughput_ipc);
      EXPECT_EQ(a.fairness, b.fairness);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.raw.commit_digest, b.raw.commit_digest);
    }
  }
}

TEST(ProcessSweep, JournalMergesToTheMainFileAndResumesByteIdentically) {
  TempFile journal("msim-process-journal");
  sim::SweepRequest first = process_request(3, 4);
  first.journal_path = journal.path();
  const std::string first_json = sweep_json_of(run_with(first));

  // Every worker's cells land in the one main journal, written by the sweep
  // process: the header plus one line per grid cell (2 kinds x 2 IQ sizes
  // x 12 mixes), and no file beside it.
  std::ifstream in(journal.path());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 1u + 48u);

  // A resume replays everything from the merged journal: identical bytes,
  // zero new simulations (the journal was written by worker processes, so
  // a replayed parent computes no baselines either).
  sim::SweepRequest again = process_request(3, 2);  // different worker count
  again.journal_path = journal.path();
  again.resume = true;
  sim::BaselineCache baselines(again.base);
  const std::string resumed_json = sweep_json_of(run_sweep(again, baselines));
  EXPECT_EQ(first_json, resumed_json);
  EXPECT_EQ(baselines.computations(), 0u);
}

TEST(ProcessSweep, ResumeAfterASupervisorCrashRerunsOnlyTheLostCells) {
  // Simulate "kill -9 of the supervisor mid-sweep": the sweep process is
  // the journal's only writer, so what survives is a prefix of its journal
  // -- here the header, ten whole cells and a torn eleventh.  The resume
  // must replay the ten, run only the rest, and produce the same bytes.
  TempFile journal("msim-supervisor-crash");
  sim::SweepRequest full = process_request(9, 1);
  full.journal_path = journal.path();
  const std::string want_json = sweep_json_of(run_with(full));

  std::vector<std::string> lines;
  {
    std::ifstream in(journal.path());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 12u);
  {
    std::ofstream out(journal.path(), std::ios::trunc);
    for (std::size_t i = 0; i <= 10; ++i) out << lines[i] << "\n";
    out << lines[11].substr(0, lines[11].size() / 2);
  }

  sim::SweepRequest resumed = process_request(9, 3);
  resumed.journal_path = journal.path();
  resumed.resume = true;
  obs::ProgressBus bus;
  resumed.progress_bus = &bus;
  EXPECT_EQ(want_json, sweep_json_of(run_with(resumed)));
  EXPECT_EQ(bus.published(obs::ProgressKind::kCellStart), lines.size() - 11)
      << "only the cells missing from the journal may run again";
}

TEST(ProcessSweep, WorkersNeverWaitOnABaselineAnotherThreadIsComputing) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan kills a child of a multithreaded fork that starts a "
                  "thread, and every worker starts a heartbeat thread";
#endif
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional};
  req.iq_sizes = {32};
  req.base.warmup = 2000;
  req.base.horizon = 20000;
  const std::string thread_json = sweep_json_of(run_with(req));

  req.isolation = sim::SweepIsolation::kProcess;
  req.workers = 2;
  req.cell_timeout_ms = 3000;
  obs::ProgressBus bus;
  req.progress_bus = &bus;
  // Keeps each death's diagnosis, so a failure names what killed the
  // worker: the heartbeat timeout, the cell budget or a signal.
  struct DeathLog final : obs::ProgressSink {
    void on_event(const obs::ProgressEvent& e) override {
      if (e.kind == obs::ProgressKind::kWorkerDeath) {
        causes += e.label + ": " + e.detail + "; ";
      }
    }
    std::string causes;
  } deaths;
  bus.subscribe(&deaths);
  sim::BaselineCache baselines(req.base);
  // Another job sharing the cache (a served thread sweep in the same pool
  // entry) still has equake's baseline in flight when the workers fork.
  // That slot's owner does not exist in a worker, so a worker that waited
  // on it would hang until the cell timeout killed it.
  std::thread other([&baselines] { (void)baselines.alone_ipc("equake", 32); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto cells = run_sweep(req, baselines);
  other.join();
  EXPECT_EQ(bus.published(obs::ProgressKind::kWorkerDeath), 0u) << deaths.causes;
  EXPECT_TRUE(sim::sweep_failures(cells).empty());
  EXPECT_EQ(thread_json, sweep_json_of(cells));
}

// ---------------------------------------------------------------------------
// 5a. Journal torn-tail truncation (the crash window of an append)
// ---------------------------------------------------------------------------

TEST(JournalTornTail, ResumeTruncatesTheTornRecordSoTheNextAppendIsClean) {
  TempFile journal("msim-torn-tail");
  constexpr std::uint64_t kFp = 0xfeed;
  {
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/false);
    j.append("cell-a", {1, 2, 3});
    j.append("cell-b", {4, 5, 6});
  }
  // SIGKILL mid-append: the tail of the file is half a record.
  const auto full_size = std::filesystem::file_size(journal.path());
  std::filesystem::resize_file(journal.path(), full_size - 10);

  {
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/true);
    EXPECT_EQ(j.loaded_entries(), 1u);
    EXPECT_NE(j.find("cell-a"), nullptr);
    EXPECT_EQ(j.find("cell-b"), nullptr) << "the torn record must not replay";
    // The torn bytes are gone from disk, so this append starts a fresh
    // line.  Without the truncation it would glue onto the torn tail and a
    // later load would lose *both* records.
    j.append("cell-b", {7, 8, 9});
  }
  {
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/true);
    EXPECT_EQ(j.loaded_entries(), 2u);
    ASSERT_NE(j.find("cell-b"), nullptr);
    EXPECT_EQ(*j.find("cell-b"), (std::vector<std::uint8_t>{7, 8, 9}));
  }
}

TEST(JournalTornTail, SweepResumeRerunsExactlyTheTornCell) {
  TempFile journal("msim-torn-sweep");
  sim::SweepRequest first = small_request(13);
  first.journal_path = journal.path();
  const std::string want_json = sweep_json_of(run_with(first));

  // Tear the final record mid-line, as a SIGKILL mid-append would.
  const auto full_size = std::filesystem::file_size(journal.path());
  std::filesystem::resize_file(journal.path(), full_size - 25);

  sim::SweepRequest resumed = small_request(13);
  resumed.journal_path = journal.path();
  resumed.resume = true;
  obs::ProgressBus bus;
  resumed.progress_bus = &bus;
  sim::BaselineCache baselines(resumed.base);
  const std::string got_json = sweep_json_of(run_sweep(resumed, baselines));

  EXPECT_EQ(want_json, got_json);
  // Replayed cells never publish kCellStart; only genuinely re-run cells
  // do.  Exactly one record was torn, so exactly one cell re-runs.
  EXPECT_EQ(bus.published(obs::ProgressKind::kCellStart), 1u);
}

// ---------------------------------------------------------------------------
// 5b. Signal hygiene in forked workers
// ---------------------------------------------------------------------------

TEST(ForkedSignals, ChildResetsDispositionsAndDropsTheParentsPendingFlag) {
  const persist::SignalGuard guard;
  ASSERT_EQ(::raise(SIGTERM), 0);  // flag-handler installed: records, no kill
  ASSERT_NE(persist::signal_pending(), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    persist::reset_signals_in_forked_child();
    // The parent's pending flag must not leak into the worker: it would
    // trigger the parent's cooperative save-and-flush paths down here.
    if (persist::signal_pending() != 0) _exit(7);
    // Dispositions are back to default, so SIGTERM now actually kills.
    (void)::raise(SIGTERM);
    _exit(8);  // unreachable unless the handler is still installed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying by SIGTERM";
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGTERM);
  }
  persist::clear_pending_signal();  // do not leak the flag into other tests
}

}  // namespace
}  // namespace msim
