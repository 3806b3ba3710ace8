// Experiment harness: runs workload mixes across scheduler kinds and IQ
// sizes and aggregates results the way the paper does (harmonic means across
// the 12 mixes of a thread count; speedups relative to the traditional
// scheduler of the same capacity; fairness = harmonic mean of weighted IPCs
// using cached single-threaded baseline runs).
//
// The sweep grid parallelizes embarrassingly: every (mix, kind, iq) cell is
// an independent simulation with its own deterministically derived RNG
// stream (common/rng.hpp, derive_stream_seed), so run_sweep can fan the
// cells out across a thread pool and still return bit-identical results at
// any job count — cells are aggregated in fixed grid order, never in
// completion order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sched_types.hpp"
#include "obs/timer.hpp"
#include "sim/run.hpp"
#include "trace/mixes.hpp"

namespace msim::sim {

/// One completed baseline: `benchmark` alone on the traditional scheduler.
struct BaselineEntry {
  std::string benchmark;
  std::uint32_t iq_entries = 0;
  double ipc = 0.0;

  friend bool operator==(const BaselineEntry&, const BaselineEntry&) = default;
};

/// Memoizes single-threaded IPC of each benchmark on the traditional
/// scheduler of a given IQ size: the denominator of the weighted-IPC
/// fairness metric (Section 2, citing [8,16]).
///
/// Concurrency-safe with per-key single-flight computation: the first
/// thread to request a key simulates it while later requesters of the
/// *same* key block on that key's slot (requests for other keys proceed
/// unhindered — there is no global lock around the simulation).
class BaselineCache {
 public:
  explicit BaselineCache(RunConfig base) : base_(std::move(base)) {}

  /// Copies `other`'s base config and finished baselines under its lock,
  /// but none of its in-flight slots: a key another thread is simulating
  /// is simulated afresh by whoever asks the copy for it.
  BaselineCache(const BaselineCache& other);
  BaselineCache& operator=(const BaselineCache&) = delete;

  /// IPC of `benchmark` running alone (traditional scheduler, `iq_entries`).
  double alone_ipc(std::string_view benchmark, std::uint32_t iq_entries);

  /// Number of completed baselines.
  [[nodiscard]] std::size_t entries() const;

  /// Number of baseline simulations actually executed.  With single-flight
  /// this equals entries() no matter how many threads raced on a key.
  [[nodiscard]] std::uint64_t computations() const;

  /// All completed baselines in deterministic (benchmark, iq) order.
  [[nodiscard]] std::vector<BaselineEntry> snapshot() const;

 private:
  using Key = std::pair<std::string, std::uint32_t>;

  /// Single-flight rendezvous for one key's in-progress simulation.
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;   ///< guarded by m
    bool failed = false;  ///< guarded by m
    double ipc = 0.0;     ///< written once before ready=true
    std::string error;    ///< the owner's failure message (guarded by m)
  };

  RunConfig base_;
  mutable std::mutex mu_;  ///< guards slots_, done_, computations_
  std::map<Key, std::shared_ptr<Slot>> slots_;
  std::map<Key, double> done_;
  std::uint64_t computations_ = 0;
};

/// One mix under one scheduler configuration.
struct MixResult {
  std::string mix_name;
  double throughput_ipc = 0.0;
  double fairness = 0.0;  ///< harmonic mean of per-thread weighted IPCs
  RunResult raw;
  /// Crash isolation (SweepRequest::isolate_failures): false when every
  /// attempt at this cell died; `error` keeps the last failure message and
  /// the numeric fields above stay zero.
  bool ok = true;
  std::string error;
  unsigned attempts = 1;  ///< simulation attempts consumed (retries included)
  /// JSON diagnostic bundle for process-level failures (worker deaths under
  /// isolation=process): which worker slot, how it died, how many deaths.
  /// Empty for in-process failures and successful cells.
  std::string diag;
};

/// Runs one workload mix; `base` supplies everything except benchmarks,
/// kind and IQ size.  The run's RNG stream is derived from
/// (base.seed, mix name, iq) — never from the scheduler kind, so competing
/// schedulers are compared on identical workload randomness (a paired
/// comparison, as in the paper).  With `streams`, the run replays the
/// set's shared streams (run_simulation); the result is the same.  The
/// result keeps no metric-registry snapshot (`raw.metrics` is empty).
MixResult run_mix(const trace::WorkloadMix& mix, core::SchedulerKind kind,
                  std::uint32_t iq_entries, const RunConfig& base,
                  BaselineCache& baselines, trace::StreamSet* streams = nullptr);

/// Aggregate of the 12 mixes for one (kind, IQ size) cell.
struct SweepCell {
  core::SchedulerKind kind = core::SchedulerKind::kTraditional;
  std::uint32_t iq_entries = 0;
  double hmean_ipc = 0.0;
  double hmean_fairness = 0.0;
  /// Harmonic mean across mixes of per-mix throughput speedup vs the
  /// traditional scheduler of the same capacity (1.0 for kTraditional).
  double ipc_speedup_vs_trad = 1.0;
  double fairness_gain_vs_trad = 1.0;
  double mean_all_stall_fraction = 0.0;  ///< Section-3 stall statistic
  double mean_iq_residency = 0.0;        ///< cycles from dispatch to issue
  std::vector<MixResult> mixes;
};

/// How run_sweep executes grid cells.
enum class SweepIsolation {
  /// Worker threads in this process (ThreadPool).  A crashing cell is
  /// contained by exception isolation only; a hard crash (segfault, OOM
  /// kill) takes the whole sweep down.
  kThread,
  /// Forked worker processes under robust::SweepSupervisor: worker deaths
  /// and hangs are detected, retried with backoff, and degrade to
  /// per-cell failures instead of killing the sweep
  /// (docs/ROBUSTNESS.md).  Requires isolate_failures.
  kProcess,
};

struct SweepRequest {
  unsigned thread_count = 2;  ///< selects the paper's 12 mixes of that size
  std::vector<core::SchedulerKind> kinds;
  std::vector<std::uint32_t> iq_sizes;
  RunConfig base;  ///< benchmarks/kind/iq fields are ignored
  /// Worker threads to fan the grid out across.  1 = serial (runs on the
  /// calling thread); 0 is invalid.  Results are bit-identical at any
  /// value.
  unsigned jobs = 1;
  /// Execution backend.  Successful cells are bit-identical across
  /// backends and across any jobs/workers count.
  SweepIsolation isolation = SweepIsolation::kThread;
  /// Worker processes for isolation=process (0 = use `jobs`).  Cell i is
  /// owned by worker i % workers, so the shard assignment is a pure
  /// function of the grid.  Invalid (std::invalid_argument) with
  /// isolation=thread.
  unsigned workers = 0;
  /// Wall-clock budget per cell under isolation=process (0 = unlimited):
  /// complements the deterministic in-simulation `hang_cycles` watchdog
  /// with a host-time bound that catches hangs outside simulated code.
  /// The offending worker is SIGKILLed and the cell retried/failed like
  /// any other worker death.
  std::uint64_t cell_timeout_ms = 0;
  /// Chaos fault-injection spec for worker processes, e.g.
  /// "kill@5,hang@13,segv@2!" (robust::ChaosPlan::parse).  Only valid with
  /// isolation=process; "" = no faults.
  std::string chaos;
  /// Supervisor liveness bound: a worker silent this long is presumed hung
  /// and SIGKILLed (isolation=process).
  std::uint64_t worker_heartbeat_timeout_ms = 2000;
  /// Optional progress sink (benches report to stderr).  Invoked under a
  /// lock, one whole message at a time, as cells *finish* (completion
  /// order is nondeterministic when cells run in parallel).
  std::function<void(std::string_view)> progress;
  /// Crash isolation: catch per-cell failures (invariant violations, hang
  /// watchdog, exceptions), retry each failed cell `retries` times, and
  /// return partial results with the failures recorded per mix — one bad
  /// cell degrades the sweep instead of destroying it.  Without isolation
  /// the first failure (a failed MSIM_CHECK throws msim::CheckError)
  /// propagates out of run_sweep.  Successful cells are bit-identical with
  /// isolation on or off.
  bool isolate_failures = true;
  unsigned retries = 1;
  /// Crash recovery (src/persist/, docs/CHECKPOINT.md): write-ahead journal
  /// of completed cells ("" = off).  Every finished (kind, iq, mix) cell is
  /// appended durably before the sweep moves on, so a killed sweep loses at
  /// most the cells in flight.  This process is the only writer on every
  /// backend: under isolation=process each cell is appended as its worker
  /// reports it, so a resume is byte-identical even after `kill -9` of
  /// the supervisor.
  std::string journal_path;
  /// Resume from an existing journal at journal_path: completed cells are
  /// replayed from the journal instead of re-simulated (bit-identical, since
  /// the journal stores the full MixResult), the rest run normally and keep
  /// appending.  The journal's fingerprint must match this request
  /// (persist::PersistError otherwise); a missing file just runs the whole
  /// sweep.  Without `resume`, any existing journal is overwritten.
  bool resume = false;
  /// Progress event bus (obs/progress.hpp): sweep start/finish, per-cell
  /// start/retry/finish with done/total counts.  Not owned, may be nullptr.
  /// Structured sibling of the free-text `progress` callback above.
  obs::ProgressBus* progress_bus = nullptr;
  /// Host-time registry: each simulated cell is timed as a "cell:<key>"
  /// scope, so enabling span recording yields a Chrome trace of the sweep's
  /// parallel execution.  Not owned, may be nullptr.
  obs::TimerRegistry* timers = nullptr;

  /// Throws std::invalid_argument, naming the knob, for a request
  /// run_sweep cannot execute: no mixes for thread_count, jobs=0, no IQ
  /// size, or a backend knob the isolation does not take.  run_sweep calls
  /// this first.
  void validate() const;
};

/// Records (8 bytes each) that one (mix, IQ) group's shared streams may
/// need before run_sweep stops sharing them: 4 MiB.
inline constexpr std::uint64_t kSharedStreamRecordBudget = std::uint64_t{1} << 19;

/// True when run_sweep generates each (mix, IQ, thread) stream once and
/// replays it to every scheduler kind of the group: when thread_count x
/// (warmup + horizon), which bounds how deep any kind reads the group's
/// streams, fits kSharedStreamRecordBudget.  Deeper sweeps generate every
/// cell's streams, as single runs do.  See docs/PERFORMANCE.md.
[[nodiscard]] bool shares_streams(const SweepRequest& request) noexcept;

/// Runs the full cross product.  kTraditional is always run (it anchors the
/// speedups) even when absent from `request.kinds`; it is returned only if
/// requested.  Cells are ordered kind-major in request order.
/// persist::Interrupted (a pending SIGINT/SIGTERM observed by a cell whose
/// base config watches signals) is never swallowed by crash isolation: it
/// propagates after the journal has recorded every cell that completed.
std::vector<SweepCell> run_sweep(const SweepRequest& request, BaselineCache& baselines);

/// Finds the cell for (kind, iq); throws std::invalid_argument if missing.
const SweepCell& cell_for(const std::vector<SweepCell>& cells,
                          core::SchedulerKind kind, std::uint32_t iq_entries);

/// One mix that failed every attempt in an isolated sweep.
struct FailedCell {
  core::SchedulerKind kind = core::SchedulerKind::kTraditional;
  std::uint32_t iq_entries = 0;
  std::string mix_name;
  std::string error;
  unsigned attempts = 0;
  std::string diag;  ///< JSON diagnostic bundle (process-level failures)
};

/// Collects the failed mixes of an isolated sweep in grid order.
[[nodiscard]] std::vector<FailedCell> sweep_failures(
    const std::vector<SweepCell>& cells);

}  // namespace msim::sim
