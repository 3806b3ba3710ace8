// Lightweight always-on invariant checks for the simulator.
//
// Simulator bugs manifest as silently wrong statistics, so structural
// invariants (queue occupancy, register-file accounting, program-order
// monotonicity) are checked even in release builds.  The checks are cheap
// (integer compares) relative to the per-cycle work of the pipeline.
//
// A failed check throws msim::CheckError naming the expression and its
// location, on every thread and in every harness.  run_simulation and the
// sampled engine turn it into a robust::SimulationAborted with a
// diagnostic bundle, crash-isolated sweeps record the cell as failed, and
// msim_serve fails the job while the daemon keeps serving.
#pragma once

#include <stdexcept>
#include <string>

namespace msim {

/// Thrown when an MSIM_CHECK fails (and by robust::InvariantChecker).
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Throws CheckError("MSIM_CHECK failed: <expr> at <file>:<line>").  Out of
/// line and cold, so each check site stays one compare and one call.
[[noreturn, gnu::cold]] void check_failed(const char* expr, const char* file, int line);

}  // namespace detail

}  // namespace msim

#define MSIM_CHECK(expr)                                            \
  do {                                                              \
    if (!(expr)) {                                                  \
      ::msim::detail::check_failed(#expr, __FILE__, __LINE__);      \
    }                                                               \
  } while (false)
