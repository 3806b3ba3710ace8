// Checkpoint/restore bit-identity (docs/CHECKPOINT.md).
//
// The contract under test: a pipeline suspended mid-run, serialized,
// restored into a freshly constructed pipeline in what might as well be a
// different process, and run to completion is indistinguishable from one
// that never stopped — same commit-stream digest, same cycle count, same
// statistics, same JSON reports.  Four layers:
//
//   1. Pipeline save_state/load_state against the pinned golden digests of
//      tests/test_perf_paths.cpp: a mid-run round-trip must land on the
//      exact constants the uninterrupted run pins.
//   2. The checkpoint file container: magic/version/fingerprint checking,
//      corruption rejection.
//   3. run_simulation with checkpoint_exit_cycles / resume_path: the
//      interrupt-resume-interrupt-resume chain must reproduce the straight
//      run's RunResult and stats JSON byte for byte, including with
//      verify=1 across the boundary.
//   4. run_sweep with a cell journal: a sweep killed mid-grid resumes from
//      its write-ahead journal to byte-identical aggregate JSON at any
//      jobs count.
#include <algorithm>
#include <array>
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
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/issue_queue.hpp"
#include "persist/checkpoint.hpp"
#include "persist/signal.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "smt/pipeline.hpp"
#include "trace/mixes.hpp"
#include "trace/profile.hpp"

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

// ---- 1. pipeline round-trip vs the pinned golden constants -----------------

std::vector<trace::BenchmarkProfile> workload(
    std::initializer_list<const char*> names) {
  std::vector<trace::BenchmarkProfile> out;
  for (const char* n : names) out.push_back(trace::profile_or_throw(n));
  return out;
}

smt::MachineConfig golden_machine(core::SchedulerKind kind, unsigned threads) {
  smt::MachineConfig mc;
  mc.thread_count = threads;
  mc.scheduler.kind = kind;
  mc.scheduler.iq_entries = 64;
  return mc;
}

/// The uninterrupted-run constants pinned by test_perf_paths.cpp
/// (GoldenBitIdentity).  A checkpointed run must land on the same ones.
struct Golden {
  std::uint64_t digest;
  Cycle cycles;
  std::uint64_t committed;
};

/// Runs to `pause_at` committed instructions, serializes, restores into a
/// fresh pipeline, finishes the standard 30k-commit golden run there, and
/// expects the uninterrupted run's constants bit for bit.
void expect_resume_hits_golden(core::SchedulerKind kind,
                               std::initializer_list<const char*> names,
                               const Golden& want, std::uint64_t pause_at) {
  const auto w = workload(names);
  const auto mc = golden_machine(kind, static_cast<unsigned>(w.size()));

  smt::Pipeline first(mc, w, /*seed=*/1);
  first.run(pause_at);
  ASSERT_LT(first.cycles(), want.cycles) << "pause point is not mid-run";

  persist::Archive save = persist::Archive::saver();
  first.save_state(save);

  smt::Pipeline resumed(mc, w, /*seed=*/1);
  persist::Archive load = persist::Archive::loader(save.bytes());
  resumed.load_state(load);
  load.expect_end();

  resumed.run(30'000);
  EXPECT_EQ(resumed.commit_digest(), want.digest)
      << "committed-instruction stream diverged after restore";
  EXPECT_EQ(resumed.cycles(), want.cycles);
  EXPECT_EQ(resumed.total_committed(), want.committed);

  // The digest is intrinsic to the pipeline now; the uninterrupted run must
  // agree with both the constant and the resumed run.
  smt::Pipeline straight(mc, w, /*seed=*/1);
  straight.run(30'000);
  EXPECT_EQ(straight.commit_digest(), want.digest)
      << "straight run no longer matches the pinned golden digest";
}

TEST(CheckpointBitIdentity, TwoThreadTraditional) {
  expect_resume_hits_golden(core::SchedulerKind::kTraditional,
                            {"gzip", "equake"},
                            {10830539571080912323ULL, 37241, 46411}, 11'000);
}

TEST(CheckpointBitIdentity, TwoThreadTwoOpBlockOoo) {
  expect_resume_hits_golden(core::SchedulerKind::kTwoOpBlockOoo,
                            {"gzip", "equake"},
                            {12392273267717430596ULL, 37112, 46411}, 11'000);
}

TEST(CheckpointBitIdentity, FourThreadTraditional) {
  expect_resume_hits_golden(core::SchedulerKind::kTraditional,
                            {"gzip", "equake", "gcc", "mesa"},
                            {15374823743679590000ULL, 33632, 74292}, 13'000);
}

TEST(CheckpointBitIdentity, FourThreadTwoOpBlock) {
  expect_resume_hits_golden(core::SchedulerKind::kTwoOpBlock,
                            {"gzip", "equake", "gcc", "mesa"},
                            {6333350359642444287ULL, 33461, 70535}, 13'000);
}

TEST(CheckpointBitIdentity, FourThreadTwoOpBlockOoo) {
  expect_resume_hits_golden(core::SchedulerKind::kTwoOpBlockOoo,
                            {"gzip", "equake", "gcc", "mesa"},
                            {17558748911921286022ULL, 33087, 73790}, 13'000);
}

TEST(CheckpointBitIdentity, FourThreadTagElimination) {
  expect_resume_hits_golden(core::SchedulerKind::kTagElimination,
                            {"gzip", "equake", "gcc", "mesa"},
                            {15796738916688664714ULL, 33844, 74460}, 13'000);
}

TEST(CheckpointBitIdentity, DoubleRoundTripIsStillExact) {
  // Two suspend/restore hops, at different pause points, through two
  // different archives: restore must be a fixed point, not "close enough".
  const auto w = workload({"gzip", "equake"});
  const auto mc = golden_machine(core::SchedulerKind::kTwoOpBlockOoo, 2);

  smt::Pipeline pipe(mc, w, /*seed=*/1);
  pipe.run(7'000);
  persist::Archive s1 = persist::Archive::saver();
  pipe.save_state(s1);

  smt::Pipeline hop1(mc, w, /*seed=*/1);
  persist::Archive l1 = persist::Archive::loader(s1.bytes());
  hop1.load_state(l1);
  l1.expect_end();
  hop1.run(19'000);
  persist::Archive s2 = persist::Archive::saver();
  hop1.save_state(s2);

  smt::Pipeline hop2(mc, w, /*seed=*/1);
  persist::Archive l2 = persist::Archive::loader(s2.bytes());
  hop2.load_state(l2);
  l2.expect_end();
  hop2.run(30'000);

  EXPECT_EQ(hop2.commit_digest(), 12392273267717430596ULL);
  EXPECT_EQ(hop2.cycles(), 37112u);
  EXPECT_EQ(hop2.total_committed(), 46411u);
}

TEST(CheckpointBitIdentity, IntervalEngineRoundTripsInsidePipelineState) {
  // With interval telemetry on, the engine's ring, phase tables and stream
  // cursor are pipeline state like any other: a mid-run round-trip must
  // reproduce the uninterrupted run's interval records exactly.
  const auto w = workload({"gzip", "equake"});
  auto mc = golden_machine(core::SchedulerKind::kTwoOpBlockOoo, 2);
  mc.interval_cycles = 1'000;

  smt::Pipeline straight(mc, w, /*seed=*/1);
  straight.run(30'000);
  ASSERT_FALSE(straight.interval_engine().records().empty());

  smt::Pipeline first(mc, w, /*seed=*/1);
  first.run(11'000);
  persist::Archive save = persist::Archive::saver();
  first.save_state(save);

  smt::Pipeline resumed(mc, w, /*seed=*/1);
  persist::Archive load = persist::Archive::loader(save.bytes());
  resumed.load_state(load);
  load.expect_end();
  EXPECT_EQ(resumed.interval_engine().captured_total(),
            first.interval_engine().captured_total());

  resumed.run(30'000);
  EXPECT_EQ(resumed.commit_digest(), straight.commit_digest());
  const auto& a = resumed.interval_engine().records();
  const auto& b = straight.interval_engine().records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(obs::format_interval_record(a[i]),
              obs::format_interval_record(b[i]))
        << "interval " << i << " diverged after restore";
  }
  EXPECT_EQ(resumed.interval_engine().captured_total(),
            straight.interval_engine().captured_total());
  EXPECT_EQ(resumed.interval_engine().unique_phases(0),
            straight.interval_engine().unique_phases(0));
}

// ---- 2. the checkpoint file container --------------------------------------

TEST(CheckpointFile, RoundTripsMetaAndRejectsMismatchedFingerprint) {
  const auto w = workload({"gzip", "equake"});
  const auto mc = golden_machine(core::SchedulerKind::kTraditional, 2);
  smt::Pipeline pipe(mc, w, /*seed=*/1);
  pipe.run(2'000);

  const TempFile file("msim-test-ckpt");
  persist::save_checkpoint(file.path(), pipe,
                           {/*config_fingerprint=*/0x1234, persist::RunPhase::kMeasure});

  smt::Pipeline fresh(mc, w, /*seed=*/1);
  const persist::CheckpointMeta meta =
      persist::load_checkpoint(file.path(), fresh, 0x1234);
  EXPECT_EQ(meta.config_fingerprint, 0x1234u);
  EXPECT_EQ(meta.phase, persist::RunPhase::kMeasure);
  EXPECT_EQ(fresh.absolute_cycle(), pipe.absolute_cycle());
  EXPECT_EQ(fresh.commit_digest(), pipe.commit_digest());

  smt::Pipeline other(mc, w, /*seed=*/1);
  EXPECT_THROW((void)persist::load_checkpoint(file.path(), other, 0x9999),
               persist::PersistError);
}

TEST(CheckpointFile, RejectsTruncationAndGarbage) {
  const auto w = workload({"gzip", "equake"});
  const auto mc = golden_machine(core::SchedulerKind::kTraditional, 2);
  smt::Pipeline pipe(mc, w, /*seed=*/1);
  pipe.run(2'000);

  const TempFile file("msim-test-ckpt-corrupt");
  persist::save_checkpoint(file.path(), pipe, {0x1234, persist::RunPhase::kWarmup});

  // Chop the tail off: load must fail loudly, not "succeed" with state from
  // half a pipeline.
  const auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size / 2);
  smt::Pipeline victim(mc, w, /*seed=*/1);
  EXPECT_THROW((void)persist::load_checkpoint(file.path(), victim, 0x1234),
               persist::PersistError);

  // Not a checkpoint at all.
  {
    std::ofstream os(file.path(), std::ios::trunc | std::ios::binary);
    os << "definitely not a checkpoint";
  }
  EXPECT_THROW((void)persist::load_checkpoint(file.path(), victim, 0x1234),
               persist::PersistError);

  EXPECT_THROW((void)persist::load_checkpoint(temp_path("msim-test-missing"),
                                              victim, 0x1234),
               persist::PersistError);
}

// Queue counts come from disk.  One above the receiving queue's capacity
// must raise PersistError, never write past the ring; under the asan/ubsan
// job these tests also prove no byte is touched out of bounds.  The
// over-full streams are genuine checkpoints of a machine whose queue is
// roomier than the loader's.

/// Runs the 4T golden machine until some thread's queue (as `held` reads
/// it) holds more than `limit` entries, then loads its bytes into the same
/// machine with that queue shrunk to `limit` by `shrink`.
void expect_overfull_queue_refused(
    std::uint32_t limit, void (*shrink)(smt::MachineConfig&, std::uint32_t),
    std::uint32_t (*held)(const smt::Pipeline&, ThreadId), const std::string& queue) {
  const auto w = workload({"gzip", "equake", "gcc", "mesa"});
  const smt::MachineConfig roomy = golden_machine(core::SchedulerKind::kTwoOpBlock, 4);
  smt::MachineConfig tight = roomy;
  shrink(tight, limit);

  smt::Pipeline pipe(roomy, w, /*seed=*/1);
  auto overfull = [&] {
    for (ThreadId t = 0; t < 4; ++t) {
      if (held(pipe, t) > limit) return true;
    }
    return false;
  };
  for (int i = 0; i < 100'000 && !overfull(); ++i) pipe.tick();
  ASSERT_TRUE(overfull()) << queue << " never held more than " << limit;
  persist::Archive save = persist::Archive::saver();
  pipe.save_state(save);

  smt::Pipeline target(tight, w, /*seed=*/1);
  persist::Archive load = persist::Archive::loader(save.bytes());
  try {
    target.load_state(load);
    FAIL() << "an over-full " << queue << " loaded";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find(queue + " holds "), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointLoad, OverfullFetchQueueIsRefused) {
  expect_overfull_queue_refused(
      4, [](smt::MachineConfig& mc, std::uint32_t n) { mc.fetch_queue_entries = n; },
      [](const smt::Pipeline& p, ThreadId t) { return p.fetch_queue_size(t); },
      "fetch queue");
}

TEST(CheckpointLoad, OverfullLsqIsRefused) {
  expect_overfull_queue_refused(
      8, [](smt::MachineConfig& mc, std::uint32_t n) { mc.lsq_entries_per_thread = n; },
      [](const smt::Pipeline& p, ThreadId t) { return p.lsq_size(t); }, "LSQ");
}

TEST(CheckpointLoad, OverfullRenameBufferIsRefused) {
  expect_overfull_queue_refused(
      4,
      [](smt::MachineConfig& mc, std::uint32_t n) {
        mc.scheduler.rename_buffer_entries = n;
      },
      [](const smt::Pipeline& p, ThreadId t) { return p.scheduler().buffer_size(t); },
      "rename buffer");
}

/// Appends the `width` low bytes of `v`, little-endian (the Archive's
/// encoding), so a test can find a known field run in a payload.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Offset of the first occurrence of `fields` in `bytes` (bytes.size()
/// when absent).
std::size_t find_fields(const std::vector<std::uint8_t>& bytes,
                        const std::vector<std::uint8_t>& fields) {
  return static_cast<std::size_t>(
      std::search(bytes.begin(), bytes.end(), fields.begin(), fields.end()) -
      bytes.begin());
}

// The ROB's capacity travels in the stream, so only a corrupted count can
// exceed it: patch the count that follows the first ROB section header.
TEST(CheckpointLoad, CorruptRobCountIsRefused) {
  const auto w = workload({"gzip", "equake"});
  const auto mc = golden_machine(core::SchedulerKind::kTwoOpBlockOoo, 2);
  smt::Pipeline pipe(mc, w, /*seed=*/1);
  pipe.run(2'000);
  persist::Archive save = persist::Archive::saver();
  pipe.save_state(save);
  std::vector<std::uint8_t> bytes = save.bytes();

  std::vector<std::uint8_t> header;
  put_le(header, persist::tag_hash("rob"), 4);
  put_le(header, mc.rob_entries_per_thread, 4);
  const std::size_t count_at = find_fields(bytes, header) + header.size();
  ASSERT_LE(count_at + 4, bytes.size());
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(count_at), 4, 0xff);

  smt::Pipeline target(mc, w, /*seed=*/1);
  persist::Archive load = persist::Archive::loader(bytes);
  try {
    target.load_state(load);
    FAIL() << "a ROB count of 2^32 - 1 loaded";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("ROB holds 4294967295 entries"),
              std::string::npos)
        << e.what();
  }
}

// A waiter-list count is bounded by the bytes that follow it before any
// storage grows.  Counts with the low 32 bits above 2^31 once spun forever
// in SmallVec::reserve's doubling loop.  With one waiter on tag 7 the
// stream holds eight lists: seven empty ones, then a count of one.
TEST(CheckpointLoad, CorruptWaiterCountIsRefused) {
  core::IssueQueue iq(4, 2);
  const std::array<PhysReg, 1> tags{7};
  core::SchedInst si;
  iq.dispatch(si, {tags.data(), 1}, 0);
  persist::Archive save = persist::Archive::saver();
  iq.state_io(save);
  std::vector<std::uint8_t> bytes = save.bytes();

  std::vector<std::uint8_t> lists;
  put_le(lists, 8, 8);
  for (int tag = 0; tag < 7; ++tag) put_le(lists, 0, 8);
  put_le(lists, 1, 8);
  const std::size_t count_at = find_fields(bytes, lists) + lists.size() - 8;
  ASSERT_LE(count_at + 8, bytes.size());
  for (const std::uint64_t count : {std::uint64_t{0x80000001}, std::uint64_t{0xffffffff},
                                    std::uint64_t{0x100000001}}) {
    SCOPED_TRACE(count);
    std::vector<std::uint8_t> corrupt = bytes;
    for (int i = 0; i < 8; ++i) {
      corrupt[count_at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(count >> (8 * i));
    }
    core::IssueQueue target(4, 2);
    persist::Archive load = persist::Archive::loader(corrupt);
    try {
      target.state_io(load);
      FAIL() << "a waiter count of " << count << " loaded";
    } catch (const persist::PersistError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds remaining stream"), std::string::npos)
          << e.what();
    }
  }
}

// A pipeline whose threads replay shared streams (a sweep cell) has no
// generator state to write, so saving it fails a check instead of writing
// a checkpoint nothing could resume.
TEST(CheckpointSave, ReplayingPipelineRefusesToSave) {
  const auto w = workload({"gzip", "equake"});
  const auto mc = golden_machine(core::SchedulerKind::kTwoOpBlockOoo, 2);
  trace::StreamSet streams;
  smt::Pipeline replaying(mc, w, /*seed=*/1, &streams);
  smt::Pipeline generating(mc, w, /*seed=*/1);
  replaying.run(2'000);
  generating.run(2'000);
  EXPECT_EQ(replaying.commit_digest(), generating.commit_digest());
  persist::Archive save = persist::Archive::saver();
  EXPECT_THROW(replaying.save_state(save), CheckError);
  EXPECT_THROW((void)replaying.generator(0), CheckError);
}

// The scheduler's round-robin origin indexes per-thread state directly, so
// a corrupt one is refused.  777 idle dispatch cycles on 3 threads leave it
// at 0 after the untouched watchdog countdown and before the cycle count.
TEST(CheckpointLoad, CorruptRoundRobinOriginIsRefused) {
  struct NothingReady {
    bool is_ready(PhysReg) const { return false; }
    bool is_oldest_in_rob(ThreadId, SeqNum) const { return false; }
  };
  const core::SchedulerConfig cfg;
  core::Scheduler sched(cfg, /*thread_count=*/3, /*dispatch_width=*/8,
                        /*issue_width=*/8);
  for (Cycle now = 0; now < 777; ++now) (void)sched.run_dispatch(now, NothingReady{});
  persist::Archive save = persist::Archive::saver();
  sched.state_io(save);
  std::vector<std::uint8_t> bytes = save.bytes();

  std::vector<std::uint8_t> fields;
  put_le(fields, cfg.watchdog_timeout, 4);
  put_le(fields, /*round-robin origin=*/0, 4);
  put_le(fields, /*dispatch cycles=*/777, 8);
  const std::size_t at = find_fields(bytes, fields);
  ASSERT_LT(at, bytes.size());
  bytes[at + 4] = 3;  // origin == thread_count

  core::Scheduler target(cfg, 3, 8, 8);
  persist::Archive load = persist::Archive::loader(bytes);
  try {
    target.state_io(load);
    FAIL() << "a round-robin origin of 3 loaded into a 3-thread scheduler";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("round-robin origin"), std::string::npos)
        << e.what();
  }
}

// ---- 3. run_simulation: interrupt / resume ---------------------------------

sim::RunConfig small_run_config() {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake"};
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.seed = 1;
  cfg.warmup = 5'000;
  cfg.horizon = 20'000;
  return cfg;
}

std::string run_json(const sim::RunConfig& cfg, const sim::RunResult& result) {
  std::ostringstream os;
  sim::write_run_json(os, cfg, result);
  return os.str();
}

TEST(RunSimulationResume, InterruptedChainMatchesStraightRunByteForByte) {
  const sim::RunConfig base = small_run_config();
  const sim::RunResult straight = sim::run_simulation(base);
  ASSERT_NE(straight.commit_digest, 0u);
  const std::string want = run_json(base, straight);

  const TempFile ckpt("msim-test-resume");

  // Leg 1: deterministic interrupt mid-warm-up.
  sim::RunConfig leg1 = base;
  leg1.checkpoint_path = ckpt.path();
  leg1.checkpoint_exit_cycles = 3'000;
  try {
    (void)sim::run_simulation(leg1);
    FAIL() << "expected persist::Interrupted";
  } catch (const persist::Interrupted& e) {
    EXPECT_EQ(e.exit_code(), 130);  // 128 + SIGINT
  }

  // Leg 2: resume, interrupt again mid-measurement.  The second leg both
  // restores and re-saves through the same file.
  sim::RunConfig leg2 = base;
  leg2.resume_path = ckpt.path();
  leg2.checkpoint_path = ckpt.path();
  leg2.checkpoint_exit_cycles = 11'000;
  EXPECT_THROW((void)sim::run_simulation(leg2), persist::Interrupted);

  // Leg 3: resume to completion.
  sim::RunConfig leg3 = base;
  leg3.resume_path = ckpt.path();
  const sim::RunResult resumed = sim::run_simulation(leg3);

  EXPECT_EQ(resumed.commit_digest, straight.commit_digest);
  EXPECT_EQ(resumed.cycles, straight.cycles);
  EXPECT_EQ(resumed.per_thread_committed, straight.per_thread_committed);
  EXPECT_EQ(run_json(base, resumed), want)
      << "resumed stats JSON differs from the uninterrupted run";
}

TEST(RunSimulationResume, PeriodicCheckpointsDoNotPerturbTheRun) {
  const sim::RunConfig base = small_run_config();
  const sim::RunResult straight = sim::run_simulation(base);

  const TempFile ckpt("msim-test-periodic");
  sim::RunConfig periodic = base;
  periodic.checkpoint_path = ckpt.path();
  periodic.checkpoint_every = 2'048;
  const sim::RunResult chunked = sim::run_simulation(periodic);

  // Chunked execution (the run is carved at every checkpoint boundary) must
  // still be the same simulation.
  EXPECT_EQ(chunked.commit_digest, straight.commit_digest);
  EXPECT_EQ(run_json(base, chunked), run_json(base, straight));

  // The file left behind is itself a valid resume point: resuming it runs
  // only the remaining span and still lands on the straight run's results.
  ASSERT_TRUE(std::filesystem::exists(ckpt.path()));
  sim::RunConfig tail = base;
  tail.resume_path = ckpt.path();
  const sim::RunResult resumed = sim::run_simulation(tail);
  EXPECT_EQ(resumed.commit_digest, straight.commit_digest);
  EXPECT_EQ(run_json(base, resumed), run_json(base, straight));
}

TEST(RunSimulationResume, VerifyHoldsAcrossTheResumeBoundary) {
  sim::RunConfig base = small_run_config();
  base.verify = true;  // cycle-level invariant checking in both legs
  base.warmup = 3'000;
  base.horizon = 9'000;
  const sim::RunResult straight = sim::run_simulation(base);

  const TempFile ckpt("msim-test-verify");
  sim::RunConfig leg1 = base;
  leg1.checkpoint_path = ckpt.path();
  leg1.checkpoint_exit_cycles = 4'000;
  EXPECT_THROW((void)sim::run_simulation(leg1), persist::Interrupted);

  sim::RunConfig leg2 = base;
  leg2.resume_path = ckpt.path();
  const sim::RunResult resumed = sim::run_simulation(leg2);
  EXPECT_EQ(resumed.commit_digest, straight.commit_digest);
  EXPECT_EQ(run_json(base, resumed), run_json(base, straight));
}

TEST(RunSimulationResume, MismatchedConfigIsRefused) {
  const sim::RunConfig base = small_run_config();
  const TempFile ckpt("msim-test-fpr");
  sim::RunConfig leg1 = base;
  leg1.checkpoint_path = ckpt.path();
  leg1.checkpoint_exit_cycles = 3'000;
  EXPECT_THROW((void)sim::run_simulation(leg1), persist::Interrupted);

  // Same workload, different seed: the fingerprint must catch it before the
  // pipeline touches a single byte of mismatched state.
  sim::RunConfig other = base;
  other.seed = 2;
  other.resume_path = ckpt.path();
  EXPECT_THROW((void)sim::run_simulation(other), persist::PersistError);

  // Different scheduler: also refused.
  sim::RunConfig sched = base;
  sched.kind = core::SchedulerKind::kTraditional;
  sched.resume_path = ckpt.path();
  EXPECT_THROW((void)sim::run_simulation(sched), persist::PersistError);
}

TEST(RunConfigValidate, CheckpointKnobsNeedAPath) {
  sim::RunConfig cfg = small_run_config();
  cfg.checkpoint_every = 1'000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.checkpoint_every = 0;
  cfg.checkpoint_exit_cycles = 1'000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.checkpoint_path = "somewhere.ckpt";
  cfg.checkpoint_every = 1'000;
  cfg.checkpoint_exit_cycles = 2'000;
  EXPECT_NO_THROW(cfg.validate());
}

// ---- 4. run_sweep: kill / resume via the cell journal ----------------------

sim::SweepRequest small_sweep_request() {
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32, 48};
  req.base.warmup = 4'000;
  req.base.horizon = 10'000;
  req.base.seed = 1;
  req.base.hang_cycles = 3'000;
  return req;
}

std::string sweep_json(const std::vector<sim::SweepCell>& cells) {
  std::ostringstream os;
  sim::write_sweep_json(os, cells);
  return os.str();
}

TEST(SweepJournalResume, KilledSweepResumesByteIdenticallyAtAnyJobCount) {
  sim::SweepRequest req = small_sweep_request();

  // Poison one cell's RNG stream with a commit blockade so the grid dies at
  // a deterministic cell once crash isolation is off.  The injector stays
  // installed for every run below: the fault plan is part of the sweep's
  // fingerprint, and identical inputs are what make the JSONs comparable.
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 48);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;

  // Reference: one uninterrupted crash-isolated sweep.
  std::string want;
  {
    sim::SweepRequest ref = req;
    sim::BaselineCache baselines(ref.base);
    want = sweep_json(run_sweep(ref, baselines));
  }

  const TempFile journal("msim-test-journal");

  // Kill: serial, isolation off, journaling on — the victim's hang-watchdog
  // abort terminates the sweep mid-grid with completed cells journaled.
  {
    sim::SweepRequest killed = req;
    killed.jobs = 1;
    killed.isolate_failures = false;
    killed.journal_path = journal.path();
    sim::BaselineCache baselines(killed.base);
    EXPECT_THROW((void)run_sweep(killed, baselines), robust::SimulationAborted);
  }

  // Resume serially: journaled cells replay, the rest (victim included,
  // now isolated) run fresh.
  std::size_t replayed = 0;
  {
    sim::SweepRequest resumed = req;
    resumed.jobs = 1;
    resumed.journal_path = journal.path();
    resumed.resume = true;
    resumed.progress = [&replayed](std::string_view msg) {
      if (msg.find("journal: replaying") != std::string_view::npos) ++replayed;
    };
    sim::BaselineCache baselines(resumed.base);
    EXPECT_EQ(sweep_json(run_sweep(resumed, baselines)), want);
  }
  EXPECT_GT(replayed, 0u) << "the killed sweep journaled nothing to replay";

  // Resume again at jobs=3: by now the journal holds every successful cell,
  // and replay order must not depend on the worker count.
  {
    sim::SweepRequest wide = req;
    wide.jobs = 3;
    wide.journal_path = journal.path();
    wide.resume = true;
    sim::BaselineCache baselines(wide.base);
    EXPECT_EQ(sweep_json(run_sweep(wide, baselines)), want);
  }

  // A journal is bound to its sweep: a request with a different seed must
  // be refused, not silently fed another configuration's cells.
  {
    sim::SweepRequest mismatched = req;
    mismatched.base.seed = 2;
    mismatched.journal_path = journal.path();
    mismatched.resume = true;
    sim::BaselineCache baselines(mismatched.base);
    EXPECT_THROW((void)run_sweep(mismatched, baselines), persist::PersistError);
  }
}

}  // namespace
}  // namespace msim
