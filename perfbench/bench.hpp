// Shared declarations of the msim benchmark program (see NOTES.md).
//
// The benchmark measures the simulator from outside: it calls the public entry
// points of each module (sim::run_simulation, sim::run_sweep,
// sim::run_sampled, serve::ExperimentServer over HTTP, smt::Pipeline,
// trace::TraceGenerator, mem::MemoryHierarchy, bpred::BranchPredictor,
// persist checkpoints) and reads the models' statistics after each run.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/timer.hpp"
#include "sim/experiment.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed whose output digests must be pinned in pinned.json.  Other
/// seeds are checked against a pin when one exists (seeds 1-10 are
/// pinned), else by repeats within the run agreeing with each other.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Everything one invocation reports.  `metrics` holds exactly the metrics
/// printed on the final line; `details` are extra numbers (sample counts,
/// digests) that only go into the report file.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> details;
  std::map<std::string, std::string> digests;
  std::vector<double> op_seconds;  ///< every timed op, in order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check

  void metric(const std::string& name, double value, std::string unit) {
    metrics[name] = {value, std::move(unit)};
  }
  void fail(std::string why, std::uint64_t ops = 1) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

/// Pinned output digests: workload -> seed -> hex digest.
using Pins = std::map<std::string, std::map<std::uint64_t, std::string>>;

struct Context {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  ///< scratch files, inside the checkout
  Pins pins;
  /// Spans around the calls into each layer (traced runs only), kept in
  /// memory and written as a Chrome trace at exit.
  msim::obs::TimerRegistry* spans = nullptr;
};

// ---- helpers (main.cpp) ------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> xs);
/// Nearest-rank percentile, p in (0, 1]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
/// FNV-1a 64 over bytes, as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);
/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// A fresh directory (a daemon's journal dir), removed on destruction.
struct ScratchDir {
  explicit ScratchDir(std::string dir) : path(std::move(dir)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

/// Checks each op's output digest: against the pin for (workload, seed)
/// when one exists, else against the first digest this check saw.
class DigestCheck {
 public:
  DigestCheck(const Context& ctx, std::string workload);
  /// Stores `digest` in report.digests and records a failed op in `report`
  /// when it is wrong.
  void check(const std::string& digest, Report& report, std::uint64_t ops = 1);

 private:
  std::string workload_;
  std::string expected_;
};

// ---- workload definitions (workloads.cpp) -------------------------------------

/// run4t: gzip,equake,gcc,mesa on 2op_block_ooo, iq=64.
[[nodiscard]] msim::sim::RunConfig run4t_config(std::uint64_t seed);
/// sweep4t: the 72-cell Figure-7 grid on the thread backend at jobs=2.
[[nodiscard]] msim::sim::SweepRequest sweep4t_request(std::uint64_t seed);
/// The sampled configuration of the BM_TwoOpBlockOoo4T_Sampled bench row,
/// measured by the layer suite only (see NOTES.md on why it is not an
/// end-to-end workload).
[[nodiscard]] msim::sim::RunConfig sampled_config(std::uint64_t seed);
[[nodiscard]] msim::sim::SampledConfig sampled_knobs();
/// serve4c: the job config object clients submit, and the same knobs as
/// the offline request that produces the reference bytes.
[[nodiscard]] std::string serve4c_job_json(std::uint64_t seed, bool process);
[[nodiscard]] msim::sim::SweepRequest serve4c_request(std::uint64_t seed, bool process);

/// Host seconds and output digest of one op.
struct OpResult {
  double seconds = 0.0;
  std::string digest;
  std::uint64_t committed = 0;  ///< simulated instructions credited
};

/// One untraced op of each kind.
OpResult run4t_op(const msim::sim::RunConfig& cfg);
struct SweepOp {
  OpResult op;
  std::vector<msim::sim::SweepCell> cells;
  std::string json;                 ///< write_sweep_json bytes
  std::uint64_t mix_cells = 0;      ///< simulated (kind, iq, mix) cells
  std::uint64_t baseline_runs = 0;
  std::uint64_t failed_cells = 0;
};
SweepOp sweep_op(const msim::sim::SweepRequest& req,
                 msim::sim::BaselineCache& baselines);
struct SampledOp {
  OpResult op;
  msim::sim::SampledResult result;
};
SampledOp sampled_op(const msim::sim::RunConfig& cfg,
                     const msim::sim::SampledConfig& scfg);

/// Fills the end-to-end metrics of ctx.workload (untraced run).
void run_workload(const Context& ctx, Report& report);

// ---- serve client (serve_client.cpp) -------------------------------------------

/// Per-phase client-side timings of one served job.
struct JobTiming {
  bool ok = false;
  std::string error;
  double submit_s = 0.0;      ///< POST /v1/jobs round trip
  double queue_wait_s = 0.0;  ///< 202 -> first event line
  double run_s = 0.0;         ///< first -> last event line
  double result_s = 0.0;      ///< GET .../result round trip
  double total_s = 0.0;       ///< submit -> result bytes received
  double done_at_s = 0.0;     ///< completion, seconds into the closed loop
  std::size_t result_bytes = 0;
};

/// Submits `config_json`, follows its event stream to the close, fetches
/// the result and compares it with `reference`.  With `spans`, records one
/// span per phase.
JobTiming serve_job(std::uint16_t port, const std::string& config_json,
                    const std::string& reference,
                    msim::obs::TimerRegistry* spans = nullptr);

/// A closed loop of `clients` threads, each submitting the next job only
/// after its previous result arrived, until `seconds` elapse.
struct LoadResult {
  std::vector<JobTiming> jobs;  ///< completion order
  double seconds = 0.0;         ///< first submit -> last result
};
LoadResult closed_loop(std::uint16_t port, unsigned clients, double seconds,
                       const std::string& config_json, const std::string& reference,
                       msim::obs::TimerRegistry* spans);

// ---- layer suite (layers.cpp) ---------------------------------------------------

/// Computes every per-layer metric into `report` (traced run).
void run_layer_suite(const Context& ctx, Report& report);

}  // namespace perfbench
