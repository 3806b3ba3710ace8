// The workloads and their end-to-end measurement (untraced runs).
//
//   run4t    exact sim::run_simulation runs of the 4T mix ROADMAP item 1
//            profiled: the pipeline hot loop alone
//   sweep4t  the 72-cell Figure-7 grid on the thread backend, jobs=2
//   serve4c  four closed-loop HTTP clients against an in-process daemon
//            running small process-isolated sweep jobs
//
// The host is shared: other tenants slow it by 5-20% for stretches of a
// second to tens of seconds, and contention only ever adds time.  So each
// run reports the workload's speed in its least-disturbed stretch: a batch
// workload repeats its op and keeps the fastest repeat of each input (best
// of N); serve4c splits its closed loop into eight windows and keeps the
// one with the lowest median job latency.  A median over runs then gives
// the typical value.
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <algorithm>

#include "bench.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"
#include "sim/config_build.hpp"
#include "sim/report.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace perfbench {

namespace sim = msim::sim;

namespace {

/// Simulation seed of run4t's input `input` (input 0 is --seed itself).
std::uint64_t run4t_input_seed(std::uint64_t seed, unsigned input) {
  return input == 0 ? seed : msim::derive_stream_seed(seed, "perfbench.run4t", input);
}

/// Committed instructions of a run's measured window, summed over threads.
std::uint64_t committed_of(const sim::RunResult& r) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : r.per_thread_committed) total += c;
  return total;
}

// run4t: one run per op, cycling through inputs derived from --seed.  The
// seed also fixes each thread's static program, so a single input's run
// length varies by about 10% between seeds; the mean over several inputs
// does not.
constexpr std::uint64_t kRun4tWarmup = 15'000;
constexpr std::uint64_t kRun4tHorizon = 200'000;
constexpr unsigned kRun4tInputs = 16;

// sweep4t: the figure benches' quick=1 horizon (a quarter of the default
// 15k + 80k), so one run holds several sweeps to take the best of.
constexpr std::uint64_t kSweepWarmup = 3'750;
constexpr std::uint64_t kSweepHorizon = 20'000;

// serve4c: a small sweep, so the daemon's own machinery dominates a job.
constexpr std::uint64_t kServeWarmup = 500;
constexpr std::uint64_t kServeHorizon = 2'000;
constexpr unsigned kServeClients = 4;
// The loop is split into this many windows (about 50 jobs each in 20 s).
constexpr std::size_t kWindows = 8;

// Set-up is sampled repeatedly: the fastest of kSetupReps timings is one
// sample.  The in-process set-ups of run4t and sweep4t are allocation work
// whose cost is bimodal over time (one moment fast, the next 50% slower),
// so they sample before each run or sweep and report the run's fastest
// sample; that is steady where any average is not.  serve4c's daemon start
// is dominated by the ledger's fsync, whose latency varies without such a
// floor, so it reports the median of kServeSetupSamples samples taken
// kServeSetupGap apart, half before the load and half kServeSettle after.
constexpr int kSetupReps = 5;
constexpr int kSweepSetupBatch = 200;  ///< sweep4t's set-up takes microseconds
constexpr int kServeSetupSamples = 24;
constexpr std::chrono::milliseconds kServeSetupGap{100};
constexpr std::chrono::milliseconds kServeSettle{1000};

msim::KvConfig sweep_kv(unsigned threads, const std::string& sched,
                        const std::string& iq, std::uint64_t warmup,
                        std::uint64_t horizon, std::uint64_t seed) {
  msim::KvConfig kv;
  kv.set("sweep", std::to_string(threads));
  kv.set("sched", sched);
  kv.set("iq", iq);
  kv.set("warmup", std::to_string(warmup));
  kv.set("horizon", std::to_string(horizon));
  kv.set("seed", std::to_string(seed));
  return kv;
}

/// Repeats `round` (returning its host seconds) while another round is
/// expected to fit in `budget` seconds; always at least once.
template <typename Round>
void repeat_rounds(double budget, Round&& round) {
  const Clock::time_point start = Clock::now();
  std::vector<double> times;
  do {
    times.push_back(round());
  } while (seconds_since(start) + median(times) <= budget);
}

/// One set-up sample: the fastest of kSetupReps calls of `timed`, which
/// returns the seconds of one set-up.
template <typename Timed>
double setup_sample(Timed&& timed) {
  double best = timed();
  for (int i = 1; i < kSetupReps; ++i) best = std::min(best, timed());
  return best;
}

double fastest(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

// ---- run4t ------------------------------------------------------------------

void workload_run4t(const Context& ctx, Report& report) {
  // Set-up of one input's run, sampled before each run.
  auto setup = [&](const sim::RunConfig& cfg) {
    const Clock::time_point start = Clock::now();
    cfg.validate();
    std::vector<msim::trace::BenchmarkProfile> profiles;
    for (const std::string& b : cfg.benchmarks) {
      profiles.push_back(msim::trace::profile_or_throw(b));
    }
    const msim::smt::Pipeline pipe(cfg.machine(), profiles, cfg.seed);
    return seconds_since(start);
  };
  std::vector<double> setup_times;

  // One round runs every input once; each input's digest must repeat, and
  // the digests of all inputs together are pinned (pinned.json).
  DigestCheck digests(ctx, "run4t");
  std::vector<double> best(kRun4tInputs, 0.0);
  std::vector<std::uint64_t> committed(kRun4tInputs, 0);
  repeat_rounds(ctx.seconds, [&] {
    double round_s = 0.0;
    std::string round_digests;
    for (unsigned k = 0; k < kRun4tInputs; ++k) {
      const sim::RunConfig cfg = run4t_config(run4t_input_seed(ctx.seed, k));
      setup_times.push_back(setup_sample([&] { return setup(cfg); }));
      const OpResult op = run4t_op(cfg);
      ++report.attempted;
      report.op_seconds.push_back(op.seconds);
      round_digests += op.digest;
      if (k == 0) report.digests["run4t.input0"] = op.digest;
      best[k] = best[k] == 0.0 ? op.seconds : std::min(best[k], op.seconds);
      committed[k] = op.committed;
      round_s += op.seconds;
    }
    digests.check(fnv1a_hex(round_digests), report, kRun4tInputs);
    return round_s;
  });
  double best_total = 0.0;
  std::uint64_t committed_total = 0;
  for (unsigned k = 0; k < kRun4tInputs; ++k) {
    best_total += best[k];
    committed_total += committed[k];
  }
  report.metric("setup_s", fastest(setup_times), "s");
  report.metric("wall_s", best_total / kRun4tInputs, "s");
  report.metric("sim_kips", static_cast<double>(committed_total) / best_total / 1e3,
                "kinst/s");
  report.details["inputs"] = kRun4tInputs;
  report.details["committed_per_round"] = static_cast<double>(committed_total);
}

// ---- sweep4t ------------------------------------------------------------------

void workload_sweep4t(const Context& ctx, Report& report) {
  auto setup = [&] {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSweepSetupBatch; ++i) {
      const sim::SweepRequest req = sweep4t_request(ctx.seed);
      const sim::BaselineCache baselines(req.base);
    }
    return seconds_since(start) / kSweepSetupBatch;
  };
  std::vector<double> setup_times;

  DigestCheck digests(ctx, "sweep4t");
  const sim::SweepRequest req = sweep4t_request(ctx.seed);
  double best = 0.0;
  std::uint64_t committed = 0;
  repeat_rounds(ctx.seconds, [&] {
    setup_times.push_back(setup_sample(setup));
    sim::BaselineCache baselines(req.base);  // users pay for baselines
    const SweepOp s = sweep_op(req, baselines);
    report.attempted += s.mix_cells;
    if (s.failed_cells != 0) {
      report.fail("sweep4t: " + std::to_string(s.failed_cells) + " cell(s) failed",
                  s.failed_cells);
    }
    digests.check(s.op.digest, report, s.mix_cells - s.failed_cells);
    report.details["baseline_runs"] = static_cast<double>(s.baseline_runs);
    report.op_seconds.push_back(s.op.seconds);
    best = best == 0.0 ? s.op.seconds : std::min(best, s.op.seconds);
    committed = s.op.committed;
    return s.op.seconds;
  });
  report.metric("setup_s", fastest(setup_times), "s");
  report.metric("wall_s", best, "s");
  report.metric("sim_kips", static_cast<double>(committed) / best / 1e3, "kinst/s");
  report.details["committed_per_sweep"] = static_cast<double>(committed);
}

// ---- serve4c ------------------------------------------------------------------

void workload_serve4c(const Context& ctx, Report& report) {
  // Offline reference bytes (set-up, excluded from setup_s).
  const sim::SweepRequest ref_req = serve4c_request(ctx.seed, /*process=*/false);
  sim::BaselineCache ref_baselines(ref_req.base);
  const SweepOp ref = sweep_op(ref_req, ref_baselines);
  const std::string& reference = ref.json;
  if (ref.failed_cells != 0) throw std::runtime_error("serve4c reference sweep failed");
  // A wrong reference marks the run incorrect without failing any job.
  DigestCheck(ctx, "serve4c").check(ref.op.digest, report, /*ops=*/0);

  // Set-up: daemon construction + start() on a fresh journal dir, sampled
  // before the load and after it, each time with no other daemon running
  // (one started while another has just served load starts more slowly).
  // Clearing the dir and stopping are not timed.
  msim::serve::ServerConfig config;
  config.max_inflight = 2;
  const ScratchDir spare_journal(ctx.work_dir + "/serve4c-setup-journal");
  auto daemon_setup = [&] {
    std::filesystem::remove_all(spare_journal.path);
    std::filesystem::create_directories(spare_journal.path);
    config.journal_dir = spare_journal.path;
    const Clock::time_point start = Clock::now();
    msim::serve::ExperimentServer daemon(config);
    daemon.start();
    const double s = seconds_since(start);
    daemon.stop();
    return s;
  };
  std::vector<double> setup_times;
  auto sample_daemon_setups = [&] {
    for (int i = 0; i < kServeSetupSamples / 2; ++i) {
      std::this_thread::sleep_for(kServeSetupGap);
      setup_times.push_back(setup_sample(daemon_setup));
    }
  };
  sample_daemon_setups();

  const ScratchDir journal(ctx.work_dir + "/serve4c-journal");
  config.journal_dir = journal.path;
  msim::serve::ExperimentServer server(config);
  server.start();
  const std::uint16_t port = server.port();

  // Warm-up, untimed: a thread-backend job fills the daemon's shared
  // baseline cache (forked workers cannot fill the parent's), then one
  // process-isolated job warms the fork path.
  for (const bool process : {false, true}) {
    const JobTiming warm = serve_job(port, serve4c_job_json(ctx.seed, process), reference);
    if (!warm.ok) report.fail("serve4c warm-up job: " + warm.error);
  }

  const LoadResult load = closed_loop(port, kServeClients, ctx.seconds,
                                      serve4c_job_json(ctx.seed, true), reference,
                                      nullptr);
  server.stop();
  std::this_thread::sleep_for(kServeSettle);
  sample_daemon_setups();
  report.metric("setup_s", median(setup_times), "s");

  // Split the loop into kWindows equal windows of completion time; each
  // metric keeps its best window.  A window holding fewer than half the
  // average number of jobs is skipped.
  std::vector<double> latencies;
  std::vector<std::vector<double>> windows(kWindows);
  for (const JobTiming& j : load.jobs) {
    ++report.attempted;
    if (!j.ok) {
      report.fail("serve4c job: " + j.error);
      continue;
    }
    latencies.push_back(j.total_s);
    const auto w = static_cast<std::size_t>(j.done_at_s / load.seconds *
                                            static_cast<double>(kWindows));
    windows[std::min(w, kWindows - 1)].push_back(j.total_s);
  }
  if (latencies.empty()) throw std::runtime_error("serve4c: no job completed");
  // Each client submits its next job as soon as the last result arrives,
  // so a window's completion rate is clients / mean latency (Little's law).
  // Counting the jobs inside the window's edges instead adds their
  // rounding, and spread more.
  double best_median = 0.0, best_mean = 0.0;
  for (const std::vector<double>& lat : windows) {
    if (lat.size() * 2 * kWindows < latencies.size()) continue;
    double sum = 0.0;
    for (const double s : lat) sum += s;
    const double mean = sum / static_cast<double>(lat.size());
    best_median = best_median == 0.0 ? median(lat) : std::min(best_median, median(lat));
    best_mean = best_mean == 0.0 ? mean : std::min(best_mean, mean);
  }
  report.metric("wall_s", best_median, "s");
  report.metric("sim_kips",
                kServeClients / best_mean * static_cast<double>(ref.op.committed) / 1e3,
                "kinst/s");
  report.op_seconds = latencies;
  // The whole loop's figures and the job tail, with the count of samples
  // beyond it (report file only).
  report.details["job_p50_s"] = median(latencies);
  report.details["job_p95_s"] = percentile(latencies, 0.95);
  report.details["job_p95_samples_beyond"] =
      static_cast<double>(latencies.size()) -
      std::ceil(0.95 * static_cast<double>(latencies.size()));
  report.details["jobs_per_s"] = static_cast<double>(latencies.size()) / load.seconds;
}

}  // namespace

// ---- workload definitions -------------------------------------------------------

sim::RunConfig run4t_config(std::uint64_t seed) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake", "gcc", "mesa"};
  cfg.kind = msim::core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.seed = seed;
  cfg.warmup = kRun4tWarmup;
  cfg.horizon = kRun4tHorizon;
  return cfg;
}

sim::SweepRequest sweep4t_request(std::uint64_t seed) {
  // Built from key=value knobs exactly as msim_cli and msim_serve build
  // theirs.  All three kinds are requested so every simulated cell,
  // including the traditional anchor, is returned and checked.
  const msim::KvConfig kv = sweep_kv(4, "traditional,2op_block,2op_block_ooo",
                                     "32,64", kSweepWarmup, kSweepHorizon, seed);
  const sim::BuiltRun built = sim::build_run_config(kv);
  return sim::build_sweep_request(kv, built.config, 4, /*jobs=*/2);
}

sim::RunConfig sampled_config(std::uint64_t seed) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake", "gcc", "mesa"};
  cfg.kind = msim::core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.seed = seed;
  cfg.warmup = 100'000;
  cfg.horizon = 30'000'000;
  return cfg;
}

sim::SampledConfig sampled_knobs() {
  sim::SampledConfig scfg;
  scfg.region_length = 20'000;
  scfg.detail_warmup = 2'000;
  scfg.pilot = 5'000;
  scfg.jobs = 1;
  return scfg;
}

std::string serve4c_job_json(std::uint64_t seed, bool process) {
  std::string cfg = "{\"sweep\":2,\"sched\":\"2op_block_ooo\",\"iq\":\"32\",";
  cfg += process ? "\"isolation\":\"process\",\"workers\":2,"
                 : "\"isolation\":\"thread\",\"jobs\":2,";
  cfg += "\"warmup\":" + std::to_string(kServeWarmup) +
         ",\"horizon\":" + std::to_string(kServeHorizon) +
         ",\"seed\":" + std::to_string(seed) + "}";
  return "{\"config\":" + cfg + "}";
}

sim::SweepRequest serve4c_request(std::uint64_t seed, bool process) {
  msim::KvConfig kv =
      sweep_kv(2, "2op_block_ooo", "32", kServeWarmup, kServeHorizon, seed);
  if (process) {
    kv.set("isolation", "process");
    kv.set("workers", "2");
  }
  const sim::BuiltRun built = sim::build_run_config(kv);
  return sim::build_sweep_request(kv, built.config, 2, /*jobs=*/2);
}

OpResult run4t_op(const sim::RunConfig& cfg) {
  const Clock::time_point start = Clock::now();
  const sim::RunResult r = sim::run_simulation(cfg);
  OpResult op;
  op.seconds = seconds_since(start);
  op.digest = hex64(r.commit_digest);
  op.committed = committed_of(r);
  return op;
}

SweepOp sweep_op(const sim::SweepRequest& req, sim::BaselineCache& baselines) {
  SweepOp s;
  const Clock::time_point start = Clock::now();
  s.cells = sim::run_sweep(req, baselines);
  const Clock::time_point report_start = Clock::now();
  std::ostringstream os;
  sim::write_sweep_json(os, s.cells);
  s.json = os.str();
  const Clock::time_point end = Clock::now();
  if (req.timers) {  // traced: the sweep's own cell spans nest in these
    req.timers->record_span("sim.run_sweep", start, report_start);
    req.timers->record_span("sim.write_sweep_json", report_start, end);
  }
  s.op.seconds = std::chrono::duration<double>(end - start).count();
  s.op.digest = fnv1a_hex(s.json);
  for (const sim::SweepCell& c : s.cells) {
    s.mix_cells += c.mixes.size();
    for (const sim::MixResult& m : c.mixes) s.op.committed += committed_of(m.raw);
  }
  s.failed_cells = sim::sweep_failures(s.cells).size();
  s.baseline_runs = baselines.computations();
  return s;
}

SampledOp sampled_op(const sim::RunConfig& cfg, const sim::SampledConfig& scfg) {
  SampledOp s;
  const Clock::time_point start = Clock::now();
  s.result = sim::run_sampled(cfg, scfg);
  s.op.seconds = seconds_since(start);
  s.op.digest = hex64(s.result.sampled_digest);
  s.op.committed = s.result.exact_equivalent_instructions;
  return s;
}

void run_workload(const Context& ctx, Report& report) {
  if (ctx.workload == "run4t") {
    workload_run4t(ctx, report);
  } else if (ctx.workload == "sweep4t") {
    workload_sweep4t(ctx, report);
  } else {
    workload_serve4c(ctx, report);
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
