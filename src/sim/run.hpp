// Single-simulation driver: builds a Pipeline for a workload + scheduler
// configuration, runs warm-up, measures, and snapshots every statistic the
// experiments need.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hpp"
#include "core/scheduler.hpp"
#include "mem/hierarchy.hpp"
#include "obs/interval.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "smt/machine_config.hpp"
#include "smt/pipeline.hpp"

namespace msim::robust {
class FaultInjector;
}

namespace msim::sim {

struct RunConfig {
  /// Benchmark profile names, one per hardware thread.
  std::vector<std::string> benchmarks;
  core::SchedulerKind kind = core::SchedulerKind::kTraditional;
  std::uint32_t iq_entries = 64;
  core::DeadlockMode deadlock = core::DeadlockMode::kAvoidanceBuffer;
  /// 0 = scan the whole rename buffer (the default OOO dispatch depth).
  std::uint32_t scan_depth = 0;
  bool dab_exclusive = true;
  std::uint32_t watchdog_timeout = 450;
  /// Perfect memory disambiguation in the LSQ (ablation knob).
  bool oracle_disambiguation = true;
  /// Fetch policy (ICOUNT is the paper's baseline).
  smt::FetchPolicy fetch_policy = smt::FetchPolicy::kIcount;
  /// Model wrong-path execution (see smt::MachineConfig).
  bool model_wrong_path = false;

  std::uint64_t seed = 1;
  /// Committed instructions (from any thread) before statistics reset.
  std::uint64_t warmup = 30'000;
  /// Committed instructions (from any thread, post-warm-up) to measure.
  /// This mirrors the paper's "stop after 100M from any thread" rule.
  std::uint64_t horizon = 150'000;
  /// Safety valve: abort the run after this many cycles (0 = none).
  std::uint64_t max_cycles = 0;
  /// Per-instruction lifecycle trace ring capacity in events (0 = off).
  std::size_t trace_capacity = 0;

  // Interval telemetry (src/obs/interval.hpp, docs/OBSERVABILITY.md).
  /// Cycles per interval snapshot (0 = off).
  std::uint64_t interval_cycles = 0;
  /// Stream interval records as JSONL to this path ("" = in-memory only).
  /// Written as `<path>.part` during the run and atomically renamed on
  /// clean completion; an interrupted run's .part is resumed byte-exactly.
  /// Requires interval_cycles != 0.
  std::string interval_json;
  /// Progress event bus to publish run milestones on (run start/finish,
  /// interval ticks, checkpoint saves); not owned, may be nullptr.
  obs::ProgressBus* progress_bus = nullptr;

  // Robustness (src/robust/).
  /// Cycle-level invariant checking (robust::InvariantChecker); a violation
  /// aborts the run with robust::SimulationAborted.
  bool verify = false;
  /// Simulator hang watchdog threshold in commit-free cycles (0 = off);
  /// see smt::MachineConfig::hang_cycles.
  std::uint64_t hang_cycles = 500'000;
  /// Fault injector; not owned, may be nullptr (fault-free).  The injector
  /// decides per run whether its plan targets this run's RNG stream.
  const robust::FaultInjector* faults = nullptr;

  // Checkpoint / restore (src/persist/, docs/CHECKPOINT.md).
  /// Checkpoint file to write ("" = checkpointing off).  Written atomically
  /// (temp + rename) at every `checkpoint_every` boundary and on interrupt.
  std::string checkpoint_path;
  /// Absolute-cycle period between periodic checkpoints (0 = only save on
  /// interrupt).  Boundaries are aligned to absolute multiples of this
  /// period, so a checkpoint's content never depends on how many times the
  /// run was already suspended and resumed.
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint file to restore before running ("" = fresh run).  The file
  /// must have been saved by a run with an identical configuration
  /// (fingerprint-checked; persist::PersistError otherwise).
  std::string resume_path;
  /// Deterministic-interrupt test knob: once the absolute cycle reaches
  /// this value, save a checkpoint and throw persist::Interrupted as if
  /// SIGINT had arrived at exactly that cycle (0 = off).  Requires
  /// checkpoint_path.
  std::uint64_t checkpoint_exit_cycles = 0;
  /// Poll persist::signal_pending at chunk boundaries; on SIGINT/SIGTERM,
  /// save a final checkpoint (when checkpoint_path is set) and throw
  /// persist::Interrupted.  The caller installs persist::SignalGuard.
  bool watch_signals = false;
  /// Cooperative per-run cancellation (the serve daemon's per-job cancel,
  /// docs/SERVICE.md): polled at the same chunk boundaries as
  /// watch_signals; once the flag is true the run saves a final checkpoint
  /// (when checkpoint_path is set) and throws persist::Cancelled.  Unlike
  /// the process-wide signal flag, this stops exactly one run.  Not owned,
  /// may be nullptr; never part of fingerprint().
  const std::atomic<bool>* cancel = nullptr;

  /// Builds the Table-1 machine with this run's scheduler settings applied.
  [[nodiscard]] smt::MachineConfig machine() const;

  /// Stable hash of every knob that shapes the simulation (workload, seed,
  /// machine and horizon knobs — not the checkpoint/observability knobs).
  /// Stored in checkpoints so a resume against a different configuration
  /// fails loudly instead of silently diverging.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Rejects unrunnable configurations (no benchmarks, zero horizon,
  /// zero-size structures, an unarmable watchdog...) with an actionable
  /// std::invalid_argument.  run_simulation calls this first.
  void validate() const;
};

/// Snapshot of one run's results.
struct RunResult {
  Cycle cycles = 0;
  std::vector<double> per_thread_ipc;
  std::vector<std::uint64_t> per_thread_committed;
  double throughput_ipc = 0.0;

  core::DispatchStats dispatch;
  core::IqStats iq;
  double iq_mean_occupancy = 0.0;
  mem::HierarchyStats memory;
  bpred::PredictorStats bpred;
  smt::PipelineStats pipeline;

  /// True when the run hit `max_cycles` before committing `horizon`.
  bool truncated = false;

  /// FNV-1a digest over the (tid, seq, cycle) commit stream since pipeline
  /// construction.  Bit-identity witness: a checkpointed-and-resumed run
  /// must reproduce the straight run's digest exactly.
  std::uint64_t commit_digest = 0;

  /// Full registry snapshot, sorted by metric name (see obs::StatRegistry).
  std::vector<obs::MetricSnapshot> metrics;
  /// Lifecycle trace, oldest event first (empty unless trace_capacity > 0).
  std::vector<obs::TraceEvent> trace;
  /// Events lost to the trace ring wrapping around.
  std::uint64_t trace_dropped = 0;

  /// Interval telemetry ring at run end, oldest first (empty unless
  /// interval_cycles > 0); `intervals_dropped` counts ring evictions.
  std::vector<obs::IntervalRecord> intervals;
  std::uint64_t intervals_dropped = 0;
};

/// Runs one simulation to completion and returns the measured statistics.
/// Throws std::invalid_argument for invalid configurations or unknown
/// benchmark names, and robust::SimulationAborted (carrying a JSON
/// diagnostic bundle) when the hang watchdog fires or — under verify —
/// an invariant check fails.  With the checkpoint knobs engaged it may
/// also throw persist::Interrupted (state already saved) and
/// persist::PersistError (unloadable or mismatched resume file).
/// `streams` (not owned, may be nullptr) lets the pipeline's threads replay
/// shared streams instead of generating their own (smt::Pipeline); such a
/// run cannot checkpoint, and its results are identical either way.
[[nodiscard]] RunResult run_simulation(const RunConfig& config,
                                       trace::StreamSet* streams = nullptr);

}  // namespace msim::sim
