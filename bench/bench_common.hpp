// Shared scaffolding for the reproduction benches.
//
// Every bench binary accepts `key=value` overrides:
//   warmup=N horizon=N seed=N iq=32,48,64,96,128 quick=1 jobs=N json=PATH
//   checkpoint=PATH resume=0|1 isolation=thread|process workers=N
// `quick=1` shrinks the horizons by 4x for smoke runs.  `jobs=N` fans the
// sweep grid out across N worker threads (default: hardware concurrency;
// `jobs=1` is the serial path) — results are bit-identical at any job
// count because every simulation owns a deterministically derived RNG
// stream.  The paper used 100M-instruction runs, which
// `horizon=100000000` reproduces given patience (see DESIGN.md on why
// short synthetic runs converge).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/timer.hpp"
#include "persist/atomic_file.hpp"
#include "persist/signal.hpp"
#include "robust/diagnostic.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace msim::bench {

struct BenchOptions {
  sim::RunConfig base;
  std::vector<std::uint32_t> iq_sizes{32, 48, 64, 96, 128};
  /// Worker threads for sweep grids (sim::SweepRequest::jobs).
  unsigned jobs = 1;
  bool verbose = false;
  /// When non-empty, the sweep grid is also written there as JSON
  /// (sim::write_sweep_json).
  std::string json_path;
  /// Write-ahead journal of completed sweep cells (checkpoint=PATH); with
  /// resume=1 an existing journal's cells are replayed instead of re-run.
  /// See docs/CHECKPOINT.md.
  std::string journal_path;
  bool resume = false;
  /// Sweep execution backend (docs/ROBUSTNESS.md): isolation=process runs
  /// cells in supervised worker processes; workers= implies it.
  sim::SweepIsolation isolation = sim::SweepIsolation::kThread;
  unsigned workers = 0;  ///< worker processes (0 = jobs)
};

inline BenchOptions parse_options(int argc, char** argv) {
  const KvConfig cli =
      KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});
  static constexpr std::string_view kKnown[] = {
      "warmup", "horizon", "seed", "iq", "quick", "jobs", "verbose", "json",
      "verify", "hang_cycles", "checkpoint", "resume", "isolation", "workers"};
  const auto unknown = cli.unknown_keys(kKnown);
  if (!unknown.empty()) {
    std::string msg = "unknown option(s):";
    for (const std::string& k : unknown) msg += " " + k;
    msg += " (known: warmup horizon seed iq quick jobs verbose json verify "
           "hang_cycles checkpoint resume isolation workers; see the knob "
           "table in EXPERIMENTS.md)";
    throw std::invalid_argument(msg);
  }
  BenchOptions opts;
  opts.base.warmup = cli.get_uint("warmup", 15'000);
  opts.base.horizon = cli.get_uint("horizon", 80'000);
  opts.base.seed = cli.get_uint("seed", 1);
  opts.iq_sizes = cli.get_uint_list<std::uint32_t>("iq", {32, 48, 64, 96, 128});
  if (cli.get_bool("quick", false)) {
    opts.base.warmup /= 4;
    opts.base.horizon /= 4;
  }
  opts.jobs = cli.get_uint<unsigned>("jobs", ThreadPool::default_parallelism());
  if (opts.jobs == 0) {
    throw std::invalid_argument(
        "jobs=0 is invalid: use jobs=1 for the serial path or jobs=N for N "
        "workers (default: hardware concurrency)");
  }
  opts.verbose = cli.get_bool("verbose", false);
  opts.json_path = cli.get_string("json", "");
  opts.base.verify = cli.get_bool("verify", false);
  opts.base.hang_cycles = cli.get_uint("hang_cycles", 500'000);
  opts.journal_path = cli.get_string("checkpoint", "");
  opts.resume = cli.get_bool("resume", false);
  const std::string isolation = cli.get_string("isolation", "");
  const unsigned workers = cli.get_uint<unsigned>("workers", 0);
  if (isolation == "process" || (isolation.empty() && workers != 0)) {
    opts.isolation = sim::SweepIsolation::kProcess;
    opts.workers = workers;
  } else if (!isolation.empty() && isolation != "thread") {
    throw std::invalid_argument("unknown isolation: '" + isolation +
                                "' (thread | process)");
  } else if (workers != 0) {
    throw std::invalid_argument("workers= requires isolation=process");
  }
  if (opts.resume && opts.journal_path.empty()) {
    throw std::invalid_argument(
        "resume=1 needs checkpoint=PATH naming the journal to resume");
  }
  // guarded_main installs persist::SignalGuard, so every cell polls for
  // SIGINT/SIGTERM and a killed sweep exits 128+signum with its journal
  // flushed.
  opts.base.watch_signals = true;

  // Reject unrunnable configurations here, before any sweep starts.  The
  // mixes supply the real benchmarks later; a placeholder stands in so
  // RunConfig::validate can exercise the structural checks.
  sim::RunConfig probe = opts.base;
  probe.benchmarks = {"gcc"};
  probe.validate();
  return opts;
}

/// Wraps a bench body in the standard error protocol: configuration errors
/// exit 2 with a one-line message, simulation aborts (hang watchdog or
/// invariant violation) exit 3, interrupts exit 128+signum after the cell
/// journal is flushed — never an uncaught-exception stack dump.
template <typename F>
inline int guarded_main(F&& body) {
  const persist::SignalGuard signals;
  try {
    return body();
  } catch (const persist::Interrupted& e) {
    std::cerr << "interrupted: " << e.what()
              << " (journaled cells are resumable with checkpoint=PATH "
                 "resume=1)\n";
    return e.exit_code();
  } catch (const robust::SimulationAborted& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 3;
  } catch (const CheckError& e) {  // a failed MSIM_CHECK outside a run
    std::cerr << "fatal: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// Writes the sweep grid to opts.json_path when requested (json=PATH).
/// Atomic (temp + rename): readers never observe a half-written report.
inline void maybe_write_sweep_json(const BenchOptions& opts,
                                   const std::vector<sim::SweepCell>& cells) {
  if (opts.json_path.empty()) return;
  std::ostringstream out;
  sim::write_sweep_json(out, cells);
  persist::write_text_atomic(opts.json_path, out.str());
  std::cout << "wrote " << cells.size() << " sweep cells to " << opts.json_path
            << "\n";
}

inline std::vector<std::uint32_t> to_u32(const std::vector<std::uint64_t>& xs) {
  return {xs.begin(), xs.end()};
}

/// Runs the standard three-way sweep (traditional / 2OP_BLOCK / OOO) used
/// by Figures 3-8.
inline std::vector<sim::SweepCell> figure_sweep(unsigned thread_count,
                                                const BenchOptions& opts,
                                                sim::BaselineCache& baselines) {
  sim::SweepRequest req;
  req.thread_count = thread_count;
  req.kinds = {core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes.assign(opts.iq_sizes.begin(), opts.iq_sizes.end());
  req.base = opts.base;
  req.jobs = opts.jobs;
  req.isolation = opts.isolation;
  req.workers = opts.workers;
  req.journal_path = opts.journal_path;
  req.resume = opts.resume;
  if (opts.verbose) {
    req.progress = [](std::string_view msg) { std::cerr << "  " << msg << "\n"; };
  }
  return run_sweep(req, baselines);
}

inline void print_figure(std::string_view title,
                         const std::vector<sim::SweepCell>& cells,
                         std::span<const core::SchedulerKind> kinds,
                         const BenchOptions& opts, sim::FigureMetric metric) {
  std::vector<std::uint32_t> sizes(opts.iq_sizes.begin(), opts.iq_sizes.end());
  const TextTable table = sim::figure_table(cells, kinds, sizes, metric);
  table.print(std::cout, title);
}

inline void print_run_parameters(const BenchOptions& opts) {
  std::cout << "# warmup=" << opts.base.warmup << " horizon=" << opts.base.horizon
            << " seed=" << opts.base.seed << " jobs=" << opts.jobs
            << " (override with key=value args)\n\n";
}

/// Prints the sweep's wall-clock profile; the "sweep" stage is the number
/// to compare across job counts (same seed => same simulated results, so
/// the ratio is pure host speedup).
inline void print_sweep_timing(const obs::TimerRegistry& timers,
                               const BenchOptions& opts) {
  std::cout << "\n";
  timers.print(std::cout);
  std::cout << "# sweep wall-clock " << timers.seconds("sweep") << " s at jobs="
            << opts.jobs << "\n";
}

/// Standard figure-bench body: sweep one thread count, print one metric.
inline int run_figure_bench(int argc, char** argv, std::string_view title,
                            unsigned thread_count, sim::FigureMetric metric) {
  return guarded_main([&]() -> int {
  const BenchOptions opts = parse_options(argc, argv);
  print_run_parameters(opts);
  sim::BaselineCache baselines(opts.base);
  obs::TimerRegistry timers;
  std::vector<sim::SweepCell> cells;
  {
    const obs::ScopeTimer timer(timers, "sweep");
    cells = figure_sweep(thread_count, opts, baselines);
  }
  static constexpr core::SchedulerKind kKinds[] = {
      core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
      core::SchedulerKind::kTwoOpBlockOoo};
  print_figure(title, cells, kKinds, opts, metric);
  // Context for the reader: the raw harmonic-mean IPCs behind the speedups.
  print_figure(std::string(title) + " -- raw harmonic-mean throughput IPC",
               cells, kKinds, opts, sim::FigureMetric::kThroughputIpc);
  maybe_write_sweep_json(opts, cells);
  print_sweep_timing(timers, opts);
  return 0;
  });
}

}  // namespace msim::bench
