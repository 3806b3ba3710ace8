// Shared key=value -> job builders for the two front ends.
//
// msim_cli (examples/msim_cli.cpp) and msim_serve (src/serve/) accept the
// same simulation knobs -- one from the command line, one from a job's JSON
// "config" object.  Both take every job from build_job, so a knob's
// spelling, range, defaults and checks cannot drift between the two
// surfaces (tests/test_serve_wire.cpp cross-checks the key sets themselves
// against sim/cli_spec.hpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"

namespace msim::robust {
class FaultInjector;
}

namespace msim::sim {

/// Parses a scheduler-kind name ("traditional", "2op_block_ooo", ...);
/// throws std::invalid_argument for unknown names.
[[nodiscard]] core::SchedulerKind parse_scheduler_kind(const std::string& name);

/// Parses a fetch-policy name ("icount", "round_robin", "stall", "flush").
[[nodiscard]] smt::FetchPolicy parse_fetch_policy(const std::string& name);

/// Splits "a,b,c" into {"a","b","c"}; empty segments are dropped.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Folds GNU-style flags into the key=value convention: `--stats-json x`
/// and `--stats-json=x` become `stats_json=x`; a bare `--dump-config`
/// becomes `dump_config=1`.  `value_flags` (cli_value_flags() or
/// serve_value_flags()) lists the normalized flag names that consume a
/// following value.  Throws std::invalid_argument when such a flag is
/// last on the line.
[[nodiscard]] std::vector<std::string> normalize_cli_args(
    int argc, char** argv, std::span<const std::string_view> value_flags);

/// A RunConfig plus the fault injector it may point at.  The injector is
/// heap-allocated so BuiltRun can be moved without invalidating
/// config.faults.
struct BuiltRun {
  RunConfig config;
  std::shared_ptr<robust::FaultInjector> injector;  ///< null when fault-free
  std::string fault_note;  ///< FaultPlan::describe() when engaged, else ""
};

/// Builds the simulation-shaping half of a RunConfig from key=value knobs:
/// machine (benchmarks/sched/fetch/deadlock/iq/...), horizon
/// (warmup/horizon/seed/max_cycles), robustness (verify/hang_cycles/
/// fault_*) and interval=N.  With sweep=N in `kv`, sched/iq are left at
/// their defaults (the sweep grid supplies them per cell).  Caller-specific
/// surfaces -- output paths, checkpointing, progress buses, signal
/// watching, trace capacity -- stay with the caller.  Throws
/// std::invalid_argument on unknown enum values (the caller has already
/// rejected unknown keys).
[[nodiscard]] BuiltRun build_run_config(const KvConfig& kv);

/// Builds the sweep-grid and backend knobs (kinds, IQ sizes, isolation,
/// workers, retries, chaos, cell_timeout_ms) on top of `base`.  Journal
/// path/resume and progress sinks stay with the caller.
[[nodiscard]] SweepRequest build_sweep_request(const KvConfig& kv,
                                               const RunConfig& base,
                                               unsigned thread_count,
                                               unsigned jobs);

enum class JobMode { kRun, kSampled, kSweep };

/// A validated job.  `built` owns the fault injector; config() is the one
/// RunConfig a caller decorates with its own surfaces (progress bus,
/// cancel flag, signal watching, checkpoint paths) -- sweep.base in sweep
/// mode, built.config otherwise.
struct JobSpec {
  JobMode mode = JobMode::kRun;
  BuiltRun built;
  SampledConfig sampled;  ///< kSampled only
  SweepRequest sweep;     ///< kSweep only
  [[nodiscard]] RunConfig& config() {
    return mode == JobMode::kSweep ? sweep.base : built.config;
  }
};

/// Builds a job from key=value knobs (jobs= defaults to `default_jobs`)
/// and runs its mode's checks: RunConfig::validate, SampledConfig::validate
/// or SweepRequest::validate.  Throws std::invalid_argument naming the
/// knob, so a job it returns can run.
[[nodiscard]] JobSpec build_job(const KvConfig& kv, unsigned default_jobs);

}  // namespace msim::sim
