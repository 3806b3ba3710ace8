#include "sim/run.hpp"

#include <algorithm>
#include <csignal>
#include <stdexcept>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "persist/checkpoint.hpp"
#include "persist/interval_stream.hpp"
#include "persist/signal.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "robust/invariant.hpp"
#include "trace/profile.hpp"

namespace msim::sim {

smt::MachineConfig RunConfig::machine() const {
  smt::MachineConfig mc;
  mc.thread_count = static_cast<unsigned>(benchmarks.size());
  mc.scheduler.kind = kind;
  mc.scheduler.iq_entries = iq_entries;
  mc.scheduler.deadlock = deadlock;
  mc.scheduler.scan_depth = scan_depth;
  mc.scheduler.dab_exclusive = dab_exclusive;
  mc.scheduler.watchdog_timeout = watchdog_timeout;
  mc.oracle_disambiguation = oracle_disambiguation;
  mc.fetch_policy = fetch_policy;
  mc.model_wrong_path = model_wrong_path;
  mc.trace_capacity = trace_capacity;
  mc.interval_cycles = interval_cycles;
  mc.hang_cycles = hang_cycles;
  return mc;
}

std::uint64_t RunConfig::fingerprint() const {
  // FNV-1a over explicitly widened values: endianness- and
  // platform-independent, so a fingerprint travels with its checkpoint.
  Fnv1a f;
  f.u64(benchmarks.size());
  for (const std::string& b : benchmarks) {
    f.u64(b.size());
    f.bytes(b);
  }
  f.u64(static_cast<std::uint64_t>(kind));
  f.u64(iq_entries);
  f.u64(static_cast<std::uint64_t>(deadlock));
  f.u64(scan_depth);
  f.u64(dab_exclusive ? 1 : 0);
  f.u64(watchdog_timeout);
  f.u64(oracle_disambiguation ? 1 : 0);
  f.u64(static_cast<std::uint64_t>(fetch_policy));
  f.u64(model_wrong_path ? 1 : 0);
  f.u64(seed);
  f.u64(warmup);
  f.u64(horizon);
  f.u64(max_cycles);
  f.u64(trace_capacity);
  // Interval telemetry is engine state inside the checkpoint payload, so a
  // resume at a different interval= must fail the fingerprint check up
  // front rather than deep in the archive.
  f.u64(interval_cycles);
  f.u64(hang_cycles);
  // Fault injection changes machine behavior, so a faulted run's checkpoint
  // must not resume fault-free (or vice versa).
  f.u64(faults != nullptr ? 1 : 0);
  return f.h;
}

void RunConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("run config: " + msg);
  };
  if (benchmarks.empty()) {
    fail("no benchmarks named; give one profile per hardware thread "
         "(e.g. benchmarks=gcc,swim)");
  }
  if (benchmarks.size() > kMaxThreads) {
    fail(std::to_string(benchmarks.size()) + " benchmarks named but the machine "
         "supports at most " + std::to_string(kMaxThreads) + " threads");
  }
  if (horizon == 0) fail("horizon=0 would measure nothing; set horizon >= 1");
  if (checkpoint_every != 0 && checkpoint_path.empty()) {
    fail("checkpoint_every is set but checkpoint_path is empty; periodic "
         "checkpoints need somewhere to go");
  }
  if (checkpoint_exit_cycles != 0 && checkpoint_path.empty()) {
    fail("checkpoint_exit_cycles is set but checkpoint_path is empty; the "
         "deterministic interrupt saves a checkpoint before exiting");
  }
  if (!interval_json.empty() && interval_cycles == 0) {
    fail("interval_json is set but interval_cycles=0; there would be no "
         "records to stream (set interval=N, e.g. interval=10000)");
  }
  machine().validate();  // structural knobs (IQ/ROB/LSQ sizes, watchdog...)
}

namespace {

/// Chunk size for signal polling when no checkpoint period bounds the
/// chunks.  Any value yields bit-identical results (chunking never changes
/// the tick sequence); this only bounds interrupt latency.
constexpr std::uint64_t kSignalPollCycles = 8192;
constexpr std::uint64_t kNoCap = ~std::uint64_t{0};

/// The warm-up + measure loop, run in checkpoint-sized chunks.  Chunk
/// boundaries are aligned to absolute multiples of checkpoint_every, so a
/// checkpoint written at cycle C has the same bytes whether the run got
/// there straight from cycle 0 or through any number of suspend/resume
/// rounds.  Chunking never changes the tick sequence; with every knob off
/// each phase is a single pipe.run call.
void run_phases(const RunConfig& config, smt::Pipeline& pipe,
                persist::RunPhase phase) {
  const std::uint64_t fp = config.fingerprint();

  auto save = [&] {
    persist::save_checkpoint(config.checkpoint_path, pipe, {fp, phase});
    if (config.progress_bus) {
      obs::ProgressEvent ev(obs::ProgressKind::kCheckpointSaved);
      ev.label = config.checkpoint_path;
      ev.cycle = pipe.absolute_cycle();
      ev.committed = pipe.total_committed();
      config.progress_bus->publish(ev);
    }
  };
  // Raises (after saving, where a path is configured) whatever interrupt is
  // pending at this chunk boundary.  The deterministic checkpoint_exit test
  // knob reports SIGINT, so callers exit 130 exactly like a real ^C.
  auto poll_interrupts = [&] {
    if (config.checkpoint_exit_cycles != 0 &&
        pipe.absolute_cycle() >= config.checkpoint_exit_cycles) {
      save();
      throw persist::Interrupted(SIGINT);
    }
    if (config.watch_signals) {
      if (const int sig = persist::signal_pending()) {
        if (!config.checkpoint_path.empty()) save();
        throw persist::Interrupted(sig);
      }
    }
    if (config.cancel && config.cancel->load(std::memory_order_relaxed)) {
      if (!config.checkpoint_path.empty()) save();
      throw persist::Cancelled();
    }
  };

  auto run_phase = [&](std::uint64_t target) {
    for (;;) {
      bool reached = false;
      for (ThreadId t = 0; t < pipe.thread_count(); ++t) {
        if (pipe.committed(t) >= target) reached = true;
      }
      if (reached) return;
      // The phase's cycle budget counts from the phase start, exactly as
      // the single-call pipe.run(target, max_cycles) would count it.
      if (config.max_cycles != 0 && pipe.cycles() >= config.max_cycles) return;
      poll_interrupts();

      const std::uint64_t abs = pipe.absolute_cycle();
      std::uint64_t chunk = kNoCap;
      if (config.max_cycles != 0) chunk = config.max_cycles - pipe.cycles();
      if (config.checkpoint_every != 0) {
        const std::uint64_t next =
            (abs / config.checkpoint_every + 1) * config.checkpoint_every;
        chunk = std::min(chunk, next - abs);
      }
      if (config.checkpoint_exit_cycles > abs) {
        chunk = std::min(chunk, config.checkpoint_exit_cycles - abs);
      }
      if ((config.watch_signals || config.cancel != nullptr) &&
          config.checkpoint_every == 0) {
        chunk = std::min(chunk, kSignalPollCycles);
      }
      pipe.run(target, chunk == kNoCap ? 0 : chunk);

      // Periodic checkpoint — only when the chunk actually reached a period
      // boundary (the phase target can end a chunk early).
      if (config.checkpoint_every != 0 && pipe.absolute_cycle() != abs &&
          pipe.absolute_cycle() % config.checkpoint_every == 0) {
        save();
      }
    }
  };

  if (phase == persist::RunPhase::kWarmup) {
    run_phase(config.warmup);
    pipe.reset_stats();
    phase = persist::RunPhase::kMeasure;
  }
  run_phase(config.horizon);
}

}  // namespace

RunResult run_simulation(const RunConfig& config, trace::StreamSet* streams) {
  config.validate();
  std::vector<trace::BenchmarkProfile> profiles;
  profiles.reserve(config.benchmarks.size());
  for (const std::string& name : config.benchmarks) {
    profiles.push_back(trace::profile_or_throw(name));
  }

  // A fault injector decides per run whether its plan targets this run's
  // RNG stream (sweep sabotage targets exactly one cell); a null session
  // is the fault-free machine.
  std::unique_ptr<core::FaultHooks> fault_session;
  smt::MachineConfig mc = config.machine();
  if (config.faults) {
    fault_session = config.faults->session(config.seed);
    mc.fault_hooks = fault_session.get();
  }

  smt::Pipeline pipe(mc, profiles, config.seed, streams);
  robust::InvariantChecker checker;
  if (config.verify) pipe.set_observer(&checker);

  // Restore before attaching the interval stream: the writer's resume
  // truncation needs the checkpoint's stream cursor (captured_total).
  persist::RunPhase phase = persist::RunPhase::kWarmup;
  if (!config.resume_path.empty()) {
    phase =
        persist::load_checkpoint(config.resume_path, pipe, config.fingerprint())
            .phase;
  }

  std::string run_label;
  for (const std::string& b : config.benchmarks) {
    if (!run_label.empty()) run_label += ',';
    run_label += b;
  }
  obs::ProgressBus* bus = config.progress_bus;

  std::unique_ptr<persist::IntervalStreamWriter> interval_writer;
  if (!config.interval_json.empty()) {
    interval_writer = std::make_unique<persist::IntervalStreamWriter>(
        config.interval_json, pipe.interval_engine().config(),
        pipe.thread_count(), pipe.interval_engine().captured_total());
  }
  if (interval_writer || (bus && pipe.interval_engine().enabled())) {
    pipe.interval_engine().set_sink([&](const obs::IntervalRecord& r) {
      if (interval_writer) interval_writer->append(r);
      if (bus) {
        obs::ProgressEvent ev(obs::ProgressKind::kIntervalTick);
        ev.label = run_label;
        ev.cycle = r.end_cycle;
        ev.committed = pipe.total_committed();
        ev.ipc = r.ipc;
        bus->publish(ev);
      }
    });
  }
  if (bus) {
    obs::ProgressEvent ev(obs::ProgressKind::kRunStart);
    ev.label = run_label;
    ev.cycle = pipe.absolute_cycle();
    bus->publish(ev);
  }

  auto publish_abort = [&](const std::string& what) {
    if (bus) {
      obs::ProgressEvent ev(obs::ProgressKind::kRunFinish);
      ev.label = run_label;
      ev.cycle = pipe.absolute_cycle();
      ev.committed = pipe.total_committed();
      ev.ok = false;
      ev.detail = what;
      bus->publish(ev);
    }
  };
  try {
    run_phases(config, pipe, phase);
  } catch (const smt::NoForwardProgress& e) {
    publish_abort(e.what());
    throw robust::SimulationAborted(
        std::string("hang watchdog: ") + e.what(),
        robust::diagnostic_bundle(pipe, e.what()));
  } catch (const CheckError& e) {
    // An invariant (cycle-level or a structural MSIM_CHECK) failed; the
    // machine state is suspect but still readable.
    publish_abort(e.what());
    throw robust::SimulationAborted(
        e.what(), robust::diagnostic_bundle(pipe, e.what()));
  }
  // A clean completion seals the stream (atomic .part -> final rename); an
  // interrupt or abort above leaves the .part behind for a resume.
  if (interval_writer) interval_writer->finalize();
  if (bus) {
    obs::ProgressEvent ev(obs::ProgressKind::kRunFinish);
    ev.label = run_label;
    ev.cycle = pipe.absolute_cycle();
    ev.committed = pipe.total_committed();
    ev.ipc = pipe.total_ipc();
    bus->publish(ev);
  }

  RunResult out;
  out.cycles = pipe.cycles();
  if (config.max_cycles != 0) {
    out.truncated = true;
    for (ThreadId t = 0; t < pipe.thread_count(); ++t) {
      if (pipe.committed(t) >= config.horizon) out.truncated = false;
    }
  }
  for (ThreadId t = 0; t < pipe.thread_count(); ++t) {
    out.per_thread_ipc.push_back(pipe.ipc(t));
    out.per_thread_committed.push_back(pipe.committed(t));
  }
  out.throughput_ipc = pipe.total_ipc();
  out.commit_digest = pipe.commit_digest();
  out.dispatch = pipe.scheduler().dispatch_stats();
  out.iq = pipe.scheduler().iq().stats();
  out.iq_mean_occupancy = pipe.scheduler().iq().stats().mean_occupancy();
  out.memory = pipe.memory().stats();
  out.bpred = pipe.predictor().total_stats();
  out.pipeline = pipe.stats();
  out.metrics = pipe.metrics();
  if (pipe.tracer().enabled()) {
    out.trace = pipe.tracer().events();
    out.trace_dropped = pipe.tracer().dropped();
  }
  if (pipe.interval_engine().enabled()) {
    const auto& ring = pipe.interval_engine().records();
    out.intervals.assign(ring.begin(), ring.end());
    out.intervals_dropped = pipe.interval_engine().dropped();
  }
  return out;
}

}  // namespace msim::sim
