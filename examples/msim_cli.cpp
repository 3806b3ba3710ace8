// msim_cli: a full command-line driver for the simulator, in the spirit of
// SimpleScalar's sim-outorder.  Runs one configuration and prints a complete
// statistics report from every component.
//
//   ./msim_cli benchmarks=equake,gzip sched=2op_block_ooo iq=64
//              fetch=icount deadlock=dab horizon=200000
//
// The accepted knobs, the --help text and the set of GNU-style value flags
// all come from sim/cli_spec.hpp -- a single source of truth that the test
// suite cross-checks against EXPERIMENTS.md's knob table.  Highlights:
//
//   benchmarks=, sched=, fetch=, deadlock=, iq=, warmup=, horizon=, seed=
//   mode=sampled with region=, detail_warmup=, pilot=, --sampled-json PATH
//   sweep=2|3|4 with --jobs N and --sweep-json PATH
//   --stats-json, --trace-out, trace_format=, trace_capacity=
//   interval=N, --interval-json PATH      interval telemetry (JSONL stream,
//                                         schema msim.intervals.v1)
//   --progress, --progress-json PATH      live progress event stream
//   --chrome-trace PATH                   host-time spans for chrome://tracing
//   verify=, hang_cycles=, fault_* knobs, isolate=, retries=, --diag
//   isolation=process, workers=, cell_timeout_ms=, chaos=   supervised
//                                         sweep worker processes
//   --checkpoint, --checkpoint-every, --resume, checkpoint_exit=
//
// Exit codes: 0 success; 2 bad usage / configuration error (one-line
// message); 3 simulation aborted (hang watchdog or invariant violation;
// diagnostic bundle written); 128+N killed by signal N after saving the
// checkpoint / flushing the journal (SIGINT=130, SIGTERM=143).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/progress.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "persist/atomic_file.hpp"
#include "persist/interval_stream.hpp"
#include "persist/signal.hpp"
#include "robust/diagnostic.hpp"
#include "sim/cli_spec.hpp"
#include "sim/config_build.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"
#include "trace/profile.hpp"

namespace {

using namespace msim;

void cache_config_json(JsonWriter& w, const mem::CacheConfig& c) {
  w.begin_object();
  w.kv("size_bytes", c.size_bytes);
  w.kv("assoc", c.assoc);
  w.kv("line_bytes", c.line_bytes);
  w.kv("sets", c.set_count());
  w.kv("hit_extra", c.hit_extra);
  w.kv("mshr_count", c.mshr_count);
  w.end_object();
}

/// JSON echo of the fully resolved machine: what the run would simulate
/// after every default and override is applied.
void dump_machine_config_json(std::ostream& os, const smt::MachineConfig& mc) {
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("thread_count", mc.thread_count);
  w.kv("fetch_width", mc.fetch_width);
  w.kv("fetch_threads_per_cycle", mc.fetch_threads_per_cycle);
  w.kv("rename_width", mc.rename_width);
  w.kv("dispatch_width", mc.dispatch_width);
  w.kv("issue_width", mc.issue_width);
  w.kv("commit_width", mc.commit_width);
  w.kv("rob_entries_per_thread", mc.rob_entries_per_thread);
  w.kv("lsq_entries_per_thread", mc.lsq_entries_per_thread);
  w.kv("oracle_disambiguation", mc.oracle_disambiguation);
  w.kv("int_phys_regs", mc.int_phys_regs);
  w.kv("fp_phys_regs", mc.fp_phys_regs);
  w.kv("front_end_stages", mc.front_end_stages);
  w.kv("fetch_queue_entries", mc.fetch_queue_entries);
  w.kv("fetch_policy", smt::fetch_policy_name(mc.fetch_policy));
  w.kv("model_wrong_path", mc.model_wrong_path);
  w.kv("trace_capacity", static_cast<std::uint64_t>(mc.trace_capacity));
  w.kv("interval_cycles", mc.interval_cycles);
  w.kv("interval_ring_capacity",
       static_cast<std::uint64_t>(mc.interval_ring_capacity));

  w.key("scheduler");
  w.begin_object();
  w.kv("kind", core::scheduler_kind_name(mc.scheduler.kind));
  w.kv("iq_entries", mc.scheduler.iq_entries);
  w.kv("rename_buffer_entries", mc.scheduler.rename_buffer_entries);
  w.kv("scan_depth", mc.scheduler.scan_depth);
  w.kv("effective_scan_depth", mc.scheduler.effective_scan_depth());
  w.kv("deadlock", core::deadlock_mode_name(mc.scheduler.deadlock));
  w.kv("watchdog_timeout", mc.scheduler.watchdog_timeout);
  w.kv("dab_exclusive", mc.scheduler.dab_exclusive);
  w.end_object();

  w.key("memory");
  w.begin_object();
  w.key("l1i");
  cache_config_json(w, mc.memory.l1i);
  w.key("l1d");
  cache_config_json(w, mc.memory.l1d);
  w.key("l2");
  cache_config_json(w, mc.memory.l2);
  w.kv("memory_latency", mc.memory.memory_latency);
  w.end_object();

  w.key("predictor");
  w.begin_object();
  w.key("gshare");
  w.begin_object();
  w.kv("table_entries", mc.predictor.gshare.table_entries);
  w.kv("history_bits", mc.predictor.gshare.history_bits);
  w.end_object();
  w.key("btb");
  w.begin_object();
  w.kv("entries", mc.predictor.btb.entries);
  w.kv("assoc", mc.predictor.btb.assoc);
  w.end_object();
  w.end_object();

  w.end_object();
  os << '\n';
}

/// Serializes the registry's recorded spans as Chrome trace-event JSON
/// (chrome://tracing, Perfetto) if --chrome-trace was given.
void maybe_write_chrome_trace(const std::string& path,
                              const obs::TimerRegistry& timers) {
  if (path.empty()) return;
  persist::write_text_atomic(path, obs::format_chrome_trace(timers));
  std::cout << "wrote " << timers.spans().size() << " span(s) to " << path
            << " [chrome trace]\n";
}

/// Replays a paper figure's (kind, iq, mix) grid through the parallel sweep
/// engine and prints the figure tables.  `bus` (optional) receives
/// sweep/cell progress events; cells are timed as "cell:<key>" scopes in
/// `timers`.
int run_sweep_mode(const KvConfig& cli, sim::SweepRequest& req,
                   obs::ProgressBus* bus, obs::TimerRegistry& timers) {
  // In sweep mode --checkpoint/--resume name the write-ahead cell journal:
  // a killed sweep (exit 128+N) resumes from it, replaying completed cells.
  req.journal_path = cli.get_string("checkpoint", "");
  const std::string resume_journal = cli.get_string("resume", "");
  if (!resume_journal.empty()) {
    req.journal_path = resume_journal;
    req.resume = true;
  }
  req.progress = [](std::string_view msg) { std::cerr << "  " << msg << "\n"; };
  req.progress_bus = bus;
  req.timers = &timers;

  std::cout << "msim-ooo sweep: " << req.thread_count << " threads, "
            << req.kinds.size() << " scheduler kind(s), "
            << req.iq_sizes.size() << " IQ size(s), jobs=" << req.jobs;
  if (req.isolation == sim::SweepIsolation::kProcess) {
    std::cout << ", isolation=process workers="
              << (req.workers == 0 ? req.jobs : req.workers);
  }
  std::cout << "\n\n";

  sim::BaselineCache baselines(req.base);
  std::vector<sim::SweepCell> cells;
  {
    const obs::ScopeTimer timer(timers, "sweep");
    cells = sim::run_sweep(req, baselines);
  }

  sim::figure_table(cells, req.kinds, req.iq_sizes, sim::FigureMetric::kIpcSpeedup)
      .print(std::cout, "throughput-IPC speedup vs traditional (%)");
  sim::figure_table(cells, req.kinds, req.iq_sizes,
                    sim::FigureMetric::kFairnessGain)
      .print(std::cout, "fairness improvement vs traditional (%)");
  sim::figure_table(cells, req.kinds, req.iq_sizes,
                    sim::FigureMetric::kThroughputIpc)
      .print(std::cout, "raw harmonic-mean throughput IPC");

  const std::vector<sim::FailedCell> failures = sim::sweep_failures(cells);
  for (const sim::FailedCell& f : failures) {
    std::cerr << "FAILED cell: " << core::scheduler_kind_name(f.kind) << " iq="
              << f.iq_entries << " " << f.mix_name << " after " << f.attempts
              << " attempt(s): " << f.error << "\n";
    if (!f.diag.empty()) std::cerr << "  diag: " << f.diag << "\n";
  }

  const std::string sweep_json = cli.get_string("sweep_json", "");
  if (!sweep_json.empty()) {
    std::ostringstream out;
    sim::write_sweep_json(out, cells);
    persist::write_text_atomic(sweep_json, out.str());
    std::cout << "wrote " << cells.size() << " sweep cells to " << sweep_json
              << "\n";
  }

  timers.print(std::cout);
  std::cout << "sweep wall-clock " << timers.seconds("sweep") << " s at jobs="
            << req.jobs << " (same seed => same numbers at any job count)\n";
  return failures.empty() ? 0 : 1;
}

/// mode=sampled (docs/SAMPLING.md): runs the phase-guided sampled engine
/// and prints the reconstituted whole-run estimates instead of the full
/// per-component report (only the detailed regions were ever simulated at
/// cycle level, so exact-mode counters do not exist).
int run_sampled_mode(const KvConfig& cli, const sim::RunConfig& cfg,
                     const sim::SampledConfig& scfg,
                     obs::TimerRegistry& timers) {
  if (!cli.get_string("stats_json", "").empty()) {
    throw std::invalid_argument(
        "--stats-json reports the full metric registry of an exact run; "
        "mode=sampled produces estimates -- use --sampled-json instead");
  }

  std::cout << "msim-ooo sampled: " << core::scheduler_kind_name(cfg.kind)
            << ", " << cfg.iq_entries << "-entry IQ, "
            << cfg.benchmarks.size() << " thread(s), region="
            << scfg.region_length << " detail_warmup=" << scfg.detail_warmup
            << " pilot=" << scfg.pilot << "\n\n";

  std::optional<sim::SampledResult> result;
  {
    const obs::ScopeTimer run_timer(timers, "run");
    result = sim::run_sampled(cfg, scfg);
  }
  const sim::SampledResult& r = *result;

  TextTable est({"estimate", "value"});
  auto row = [&est](std::string_view k, double v, int prec = 3) {
    est.begin_row();
    est.add_cell(k);
    est.add_cell(v, prec);
  };
  row("throughput IPC", r.est_ipc);
  row("  +/- 95% band", r.ipc_ci95);
  for (std::size_t t = 0; t < r.per_thread_ipc.size(); ++t) {
    row("thread " + std::to_string(t) + " (" + cfg.benchmarks[t] + ") IPC",
        r.per_thread_ipc[t]);
  }
  row("L1D MPKI", r.est_l1d_mpki, 2);
  row("L2 MPKI", r.est_l2_mpki, 2);
  row("branch mispredict rate", r.est_mispredict_rate, 4);
  est.print(std::cout, "whole-run estimates (sampled)");

  std::cout << "coverage: " << r.regions_detailed << " of " << r.regions_total
            << " region(s) simulated in detail (" << r.clusters
            << " phase cluster(s)); " << r.detailed_committed
            << " detailed instructions stand in for "
            << r.exact_equivalent_instructions << "\n";

  if (cfg.interval_cycles != 0) {
    if (!cfg.interval_json.empty()) {
      persist::IntervalStreamWriter writer(
          cfg.interval_json,
          obs::IntervalConfig{.interval_cycles = cfg.interval_cycles},
          static_cast<unsigned>(cfg.benchmarks.size()),
          /*already_streamed=*/0);
      for (const obs::IntervalRecord& rec : r.intervals) writer.append(rec);
      writer.finalize();
    }
    std::cout << "interval telemetry: " << r.intervals.size()
              << " record(s) from the detailed regions ("
              << r.intervals_dropped << " dropped from rings)";
    if (!cfg.interval_json.empty()) {
      std::cout << ", streamed to " << cfg.interval_json;
    }
    std::cout << "\n";
  }

  const std::string sampled_json = cli.get_string("sampled_json", "");
  if (!sampled_json.empty()) {
    std::ostringstream out;
    sim::write_sampled_json(out, cfg, scfg, r);
    persist::write_text_atomic(sampled_json, out.str());
    std::cout << "wrote sampled report (" << r.regions_total << " regions) to "
              << sampled_json << "\n";
  }
  return 0;
}

int run_cli(const KvConfig& cli) {
  // Every simulation knob is read, range-checked and validated for its
  // mode by the sim::build_job msim_serve uses too (sim/config_build.hpp),
  // so the two front ends cannot drift.  `job.built` owns the fault
  // injector cfg.faults may point at, so it must outlive the run.
  sim::JobSpec job = sim::build_job(cli, ThreadPool::default_parallelism());
  sim::RunConfig& cfg = job.config();
  if (!job.built.fault_note.empty()) {
    std::cerr << "fault injection: " << job.built.fault_note << "\n";
  }
  // Checkpoint / restore (docs/CHECKPOINT.md).  A SignalGuard is installed
  // in main, so every run and sweep cell polls for SIGINT/SIGTERM.
  cfg.watch_signals = true;

  // Observability surfaces shared by single-run and sweep mode: the
  // progress bus fans events out to the terminal and/or a JSONL log, the
  // timer registry feeds --chrome-trace (docs/OBSERVABILITY.md).
  obs::TimerRegistry timers;
  const std::string chrome_trace = cli.get_string("chrome_trace", "");
  if (!chrome_trace.empty()) timers.enable_spans();
  obs::ProgressBus bus;
  std::optional<obs::TerminalProgressSink> term_sink;
  std::ofstream progress_os;
  std::optional<obs::JsonlProgressSink> jsonl_sink;
  if (cli.get_bool("progress", false)) {
    term_sink.emplace(std::cerr);
    bus.subscribe(&*term_sink);
  }
  const std::string progress_json = cli.get_string("progress_json", "");
  if (!progress_json.empty()) {
    progress_os.open(progress_json, std::ios::trunc);
    if (!progress_os) {
      throw std::runtime_error("cannot open '" + progress_json + "'");
    }
    jsonl_sink.emplace(progress_os);
    bus.subscribe(&*jsonl_sink);
  }
  const bool want_bus = term_sink.has_value() || jsonl_sink.has_value();

  // Interval telemetry (schema msim.intervals.v1): --interval-json without
  // an explicit interval= turns sampling on at the default period.
  const std::string interval_json = cli.get_string("interval_json", "");
  if (!interval_json.empty() && cfg.interval_cycles == 0) {
    cfg.interval_cycles = 10'000;
  }
  if (want_bus) cfg.progress_bus = &bus;

  if (job.mode == sim::JobMode::kSweep) {
    if (!interval_json.empty()) {
      throw std::invalid_argument(
          "--interval-json is single-run only (sweep cells keep their "
          "interval rings in the journal; use interval=N with --sweep-json "
          "or --checkpoint instead)");
    }
    const int rc =
        run_sweep_mode(cli, job.sweep, want_bus ? &bus : nullptr, timers);
    maybe_write_chrome_trace(chrome_trace, timers);
    return rc;
  }
  cfg.interval_json = interval_json;

  // Single-run checkpointing (sweep mode interprets these knobs as the
  // cell journal instead, above).
  cfg.checkpoint_path = cli.get_string("checkpoint", "");
  cfg.checkpoint_every = cli.get_uint("checkpoint_every", 0);
  cfg.checkpoint_exit_cycles = cli.get_uint("checkpoint_exit", 0);
  cfg.resume_path = cli.get_string("resume", "");

  const std::string stats_json = cli.get_string("stats_json", "");
  const std::string trace_out = cli.get_string("trace_out", "");
  const std::string trace_format = cli.get_string("trace_format", "konata");
  if (trace_format != "konata" && trace_format != "gantt") {
    throw std::invalid_argument("unknown trace_format: '" + trace_format + "'");
  }
  cfg.trace_capacity = cli.get_uint<std::size_t>("trace_capacity", 0);
  if (!trace_out.empty() && cfg.trace_capacity == 0) {
    cfg.trace_capacity = std::size_t{1} << 20;
  }

  if (cli.get_bool("dump_config", false)) {
    dump_machine_config_json(std::cout, cfg.machine());
    return 0;
  }

  if (job.mode == sim::JobMode::kSampled) {
    const int rc = run_sampled_mode(cli, cfg, job.sampled, timers);
    maybe_write_chrome_trace(chrome_trace, timers);
    return rc;
  }

  std::cout << "msim-ooo: " << core::scheduler_kind_name(cfg.kind) << ", "
            << cfg.iq_entries << "-entry IQ, fetch "
            << smt::fetch_policy_name(cfg.fetch_policy) << ", "
            << cfg.benchmarks.size() << " thread(s)\n";
  for (std::size_t t = 0; t < cfg.benchmarks.size(); ++t) {
    const auto& p = trace::profile_or_throw(cfg.benchmarks[t]);
    std::cout << "  thread " << t << ": " << p.name << " ("
              << trace::ilp_class_name(p.ilp) << " ILP)\n";
  }
  std::cout << "\n";

  std::optional<sim::RunResult> result;
  {
    const obs::ScopeTimer run_timer(timers, "run");
    result = sim::run_simulation(cfg);
  }
  const sim::RunResult& r = *result;

  TextTable perf({"thread", "benchmark", "committed", "ipc"});
  for (std::size_t t = 0; t < cfg.benchmarks.size(); ++t) {
    perf.begin_row();
    perf.add_cell(std::to_string(t));
    perf.add_cell(cfg.benchmarks[t]);
    perf.add_cell(r.per_thread_committed[t]);
    perf.add_cell(r.per_thread_ipc[t], 3);
  }
  perf.print(std::cout, "performance");
  std::cout << "cycles " << r.cycles << ", throughput IPC " << r.throughput_ipc
            << (r.truncated ? "  [TRUNCATED at max_cycles]" : "") << "\n\n";

  TextTable sched({"metric", "value"});
  auto row = [&sched](std::string_view k, double v, int prec = 3) {
    sched.begin_row();
    sched.add_cell(k);
    sched.add_cell(v, prec);
  };
  auto rowu = [&sched](std::string_view k, std::uint64_t v) {
    sched.begin_row();
    sched.add_cell(k);
    sched.add_cell(v);
  };
  rowu("instructions dispatched", r.dispatch.dispatched);
  rowu("  with 0 non-ready sources", r.dispatch.dispatched_by_nonready[0]);
  rowu("  with 1 non-ready source", r.dispatch.dispatched_by_nonready[1]);
  rowu("  with 2 non-ready sources", r.dispatch.dispatched_by_nonready[2]);
  row("all-thread NDI stall fraction", r.dispatch.all_stall_fraction());
  row("HDI fraction behind NDIs", r.dispatch.hdi_fraction_behind_ndi());
  rowu("out-of-order dispatches", r.dispatch.ooo_dispatches);
  row("  fraction dependent on an NDI", r.dispatch.ooo_dependent_fraction());
  rowu("DAB inserts", r.dispatch.dab_inserts);
  rowu("watchdog flushes", r.dispatch.watchdog_flushes);
  row("IQ mean occupancy", r.iq_mean_occupancy, 1);
  row("IQ mean residency (cycles)", r.iq.mean_residency(), 1);
  rowu("IQ comparator operations", r.iq.comparator_ops);
  sched.print(std::cout, "scheduler");

  TextTable mem({"structure", "accesses", "misses", "miss_rate"});
  auto cache_row = [&mem](std::string_view name, const mem::CacheStats& s) {
    mem.begin_row();
    mem.add_cell(name);
    mem.add_cell(s.accesses);
    mem.add_cell(s.misses);
    mem.add_cell(s.miss_rate(), 3);
  };
  cache_row("L1I", r.memory.l1i);
  cache_row("L1D", r.memory.l1d);
  cache_row("L2", r.memory.l2);
  mem.print(std::cout, "memory hierarchy");
  std::cout << "main-memory accesses: " << r.memory.memory_accesses << "\n\n";

  TextTable front({"metric", "value"});
  front.begin_row();
  front.add_cell("branches");
  front.add_cell(r.bpred.branches);
  front.begin_row();
  front.add_cell("mispredict rate");
  front.add_cell(r.bpred.mispredict_rate(), 4);
  front.begin_row();
  front.add_cell("fetch cycles lost to I-cache misses");
  front.add_cell(r.pipeline.fetch_icache_stall_cycles);
  front.begin_row();
  front.add_cell("fetch opportunities gated by L2 misses");
  front.add_cell(r.pipeline.fetch_l2_gated);
  front.begin_row();
  front.add_cell("FLUSH-policy squashes");
  front.add_cell(r.pipeline.policy_flushes);
  front.begin_row();
  front.add_cell("wrong-path instructions fetched");
  front.add_cell(r.pipeline.wrong_path_fetched);
  front.begin_row();
  front.add_cell("wrong-path squashes");
  front.add_cell(r.pipeline.wrong_path_squashes);
  front.print(std::cout, "front end");

  if (cfg.interval_cycles != 0) {
    std::cout << "interval telemetry: " << r.intervals.size()
              << " record(s) every " << cfg.interval_cycles << " cycles ("
              << r.intervals_dropped << " dropped from ring)";
    if (!cfg.interval_json.empty()) {
      std::cout << ", streamed to " << cfg.interval_json;
    }
    std::cout << "\n";
  }

  if (!stats_json.empty()) {
    std::ostringstream out;
    sim::write_run_json(out, cfg, r);
    persist::write_text_atomic(stats_json, out.str());
    std::cout << "\nwrote " << r.metrics.size() << " metrics to " << stats_json
              << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) throw std::runtime_error("cannot open '" + trace_out + "'");
    if (trace_format == "konata") {
      obs::write_konata(out, r.trace);
    } else {
      obs::write_gantt(out, r.trace);
    }
    std::cout << "wrote " << r.trace.size() << " trace events ("
              << r.trace_dropped << " dropped) to " << trace_out << " ["
              << trace_format << "]\n";
  }
  maybe_write_chrome_trace(chrome_trace, timers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Convert SIGINT/SIGTERM into a polled flag: runs save a final checkpoint
  // (and sweeps flush their journal) before exiting 128+signum.
  const persist::SignalGuard signals;
  std::string diag_path = "msim-diagnostic.json";
  try {
    const std::vector<std::string> args =
        sim::normalize_cli_args(argc, argv, sim::cli_value_flags());
    const KvConfig cli = KvConfig::parse_strings(args);
    if (cli.get_bool("help", false)) {
      std::cout << sim::cli_usage();
      return 0;
    }
    if (const auto unknown = cli.unknown_keys(sim::cli_known_keys());
        !unknown.empty()) {
      std::string msg = "unknown option(s):";
      for (const std::string& k : unknown) msg += " " + k;
      msg += " (run msim_cli --help, or see the knob table in EXPERIMENTS.md)";
      throw std::invalid_argument(msg);
    }
    diag_path = cli.get_string("diag", diag_path);
    return run_cli(cli);
  } catch (const persist::Interrupted& e) {
    std::cerr << "interrupted: " << e.what()
              << " (resumable state saved where configured; rerun with "
                 "--resume)\n";
    return e.exit_code();
  } catch (const robust::SimulationAborted& e) {
    // The machine hung or violated an invariant: preserve its final state
    // for post-mortem analysis instead of dying with a bare message.
    try {
      persist::write_text_atomic(diag_path, e.bundle());
      std::cerr << "fatal: " << e.what() << "\ndiagnostic bundle: "
                << diag_path << "\n";
    } catch (const std::exception& io) {
      std::cerr << "fatal: " << e.what() << "\n(could not write diagnostic "
                << "bundle to '" << diag_path << "': " << io.what() << ")\n";
    }
    return 3;
  } catch (const CheckError& e) {
    // A failed MSIM_CHECK outside a run (a run converts it to
    // SimulationAborted above): still a simulator fault, not a usage error.
    std::cerr << "fatal: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
