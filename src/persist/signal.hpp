// Cooperative SIGINT/SIGTERM handling for checkpointable runs.
//
// The handlers only set a flag; simulation loops poll it at safe points
// (cycle-chunk and sweep-cell boundaries), write a final checkpoint /
// journal flush, and throw Interrupted.  main() catches it and exits with
// the conventional 128+signum, so shells and CI see the usual "killed by
// signal N" status while the on-disk state stays resumable.
#pragma once

#include <stdexcept>
#include <string>

namespace msim::persist {

/// A run was interrupted by a signal (or by the deterministic
/// checkpoint_exit test knob, which reports SIGINT).  State has already
/// been saved by the thrower where a checkpoint path was configured.
class Interrupted : public std::runtime_error {
 public:
  explicit Interrupted(int signum)
      : std::runtime_error("interrupted by signal " + std::to_string(signum)),
        signum_(signum) {}

  [[nodiscard]] int signum() const noexcept { return signum_; }
  /// Conventional shell exit status for death-by-signal.
  [[nodiscard]] int exit_code() const noexcept { return 128 + signum_; }

 private:
  int signum_;
};

/// A run or sweep was cancelled through a cooperative per-run cancel flag
/// (sim::RunConfig::cancel — the serve daemon's per-job cancellation path,
/// docs/SERVICE.md).  Unlike Interrupted this carries no signal: only the
/// one run observing its flag stops; the rest of the process is unaffected.
/// Like Interrupted, resumable state (checkpoint / sweep journal) has
/// already been flushed by the thrower where it was configured.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("cancelled by request") {}
};

/// RAII installer for the SIGINT/SIGTERM flag handlers; restores the
/// previous handlers on destruction.  Install one per process (guards do
/// not nest meaningfully); the flag is process-wide.
class SignalGuard {
 public:
  SignalGuard();
  ~SignalGuard();
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;
};

/// The signal number observed since the last clear, or 0.
[[nodiscard]] int signal_pending() noexcept;

/// Resets the pending-signal flag (tests).
void clear_pending_signal() noexcept;

/// Must be called first thing in a forked worker process (before any other
/// work).  A child inherits the parent's SignalGuard handler and possibly
/// its pending flag, so without this a supervisor's SIGTERM would be
/// converted into the parent's cooperative save-and-flush path — the worker
/// would run the *parent's* final-checkpoint/journal-flush logic against
/// the parent's paths (a double flush) instead of dying.  Restores SIGINT
/// and SIGTERM to their default dispositions and clears the pending flag;
/// the supervisor alone owns graceful shutdown.
void reset_signals_in_forked_child() noexcept;

}  // namespace msim::persist
