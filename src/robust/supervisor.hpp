// Process-level sweep execution: fork workers, supervise them, survive them.
//
// SweepSupervisor runs a sweep grid across forked worker processes so that a
// crashing or hanging cell (simulator bug, OOM kill, injected chaos fault)
// takes down one worker instead of the whole sweep.  Each worker owns a
// deterministic shard of the grid (cell i -> slot i % workers, in grid
// order) and reports over a pipe (worker_protocol.hpp); the supervisor
// watches heartbeats and per-cell wall-clock budgets, SIGKILLs workers that
// hang, reaps workers that die, and respawns them after a deterministic
// exponential backoff (backoff.hpp).  A cell whose worker dies too many
// times is marked exhausted and surfaces as a SupervisorFailure with a
// diagnostic bundle; every other cell's result is byte-identical to a
// fault-free run at any worker count, because cells never share mutable
// state and the shard assignment depends only on the grid.
//
// Workers write nothing to disk.  Every finished cell reaches the
// supervisor as a frame and goes to CellListener::finished on the thread
// that called run(), so the caller (sim::run_sweep) journals it there and
// stays the only writer of its journal.  A reaped worker's pipe is drained
// before its death is judged, so a cell it reported is never run again; the
// respawned worker runs only the cells still missing.
//
// The supervisor is policy-free about what a cell *is*: the caller supplies
// a CellFn that runs one cell inside the worker process and returns an
// opaque payload (an encoded MixResult, in practice).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "robust/backoff.hpp"
#include "robust/worker_protocol.hpp"

namespace msim::obs {
class ProgressBus;
}

namespace msim::robust {

/// Runs one grid cell.  Invoked inside the worker process only; must not
/// throw (wrap failures into an ok=false outcome).
using CellFn = std::function<CellOutcome(std::size_t cell)>;

/// Liveness and respawn policy.  Defaults suit tests; real sweeps mostly
/// stretch heartbeat_timeout_ms.
struct SupervisorTuning {
  std::uint64_t heartbeat_interval_ms = 25;  ///< worker beat period
  std::uint64_t heartbeat_timeout_ms = 2000; ///< silence before SIGKILL
  BackoffPolicy backoff;                     ///< respawn delay policy
};

/// A cell that exhausted its supervisor-level retries.
struct SupervisorFailure {
  std::size_t cell = 0;
  std::string error;       ///< one-line cause ("worker killed by signal 9 ...")
  std::uint32_t attempts = 0;  ///< worker deaths charged to this cell
  std::string diag;        ///< JSON diagnostic bundle (slot, deaths, reason)
};

/// Cell lifecycle as the supervisor observes it, reported on the thread
/// that called run(), as it happens.  Any member may be empty.
struct CellListener {
  /// A worker began running `cell`.
  std::function<void(std::size_t cell)> started;
  /// A worker died running `cell`; the cell runs again after the backoff.
  std::function<void(std::size_t cell, const std::string& why)> retrying;
  /// `cell` finished inside a worker, successfully or not.
  std::function<void(std::size_t cell, const CellOutcome& outcome)> finished;
  /// A cell ran out of retries on worker deaths.
  std::function<void(const SupervisorFailure& failure)> exhausted;
};

struct SupervisorConfig {
  std::size_t total_cells = 0;
  unsigned workers = 1;
  /// Supervisor-level retries per cell: a cell may see `retries` worker
  /// deaths and still succeed on the next incarnation; one more death
  /// exhausts it.
  unsigned retries = 0;
  /// Wall-clock budget per cell (0 = unlimited).  A worker exceeding it on
  /// one cell is SIGKILLed and the death is charged to that cell.
  std::uint64_t cell_timeout_ms = 0;
  SupervisorTuning tuning;
  /// Deterministic fault-injection schedule executed by the workers.
  ChaosPlan chaos;
  /// Cells already completed before this run (journal resume): never
  /// assigned to a worker.
  std::vector<std::size_t> completed;
  /// Poll persist::signal_pending() and convert SIGINT/SIGTERM into
  /// kill-all-workers + persist::Interrupted.
  bool watch_signals = false;
  /// Cooperative per-sweep cancellation (sim::RunConfig::cancel, the serve
  /// daemon): when the flag goes true the supervisor SIGKILLs and reaps
  /// every worker, then throws persist::Cancelled.  Not owned, may be
  /// nullptr.
  const std::atomic<bool>* cancel = nullptr;
  /// Worker spawn/death/exit events.  Optional, not owned.
  obs::ProgressBus* progress_bus = nullptr;
  /// Human-readable cell key for diagnostic bundles.
  std::function<std::string(std::size_t)> cell_label;
  CellListener listener;
};

struct SupervisorReport {
  /// Outcomes for every cell that ran under this supervisor, keyed by grid
  /// index.  Excludes `config.completed` cells and exhausted cells.
  std::map<std::size_t, CellOutcome> outcomes;
  std::vector<SupervisorFailure> process_failures;
  unsigned workers_spawned = 0;  ///< forks, including respawns
  unsigned worker_deaths = 0;    ///< unexpected exits (signals, crashes)
};

class SweepSupervisor {
 public:
  explicit SweepSupervisor(SupervisorConfig config);

  /// Runs the sweep to completion: every cell not in `config.completed`
  /// ends up either in `outcomes` or in `process_failures`.  Throws
  /// persist::Interrupted (after killing and reaping all workers) when
  /// watch_signals is set and a signal arrives.
  SupervisorReport run(const CellFn& cell_fn);

 private:
  SupervisorConfig config_;
};

}  // namespace msim::robust
