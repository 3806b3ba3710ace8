// The traced run: every per-layer metric, measured from outside the program
// by timing calls into each module's public functions and reading the
// models' statistics afterwards.  NOTES.md lists, for each metric, the
// end-to-end metric it should move and the workload where it should not.
//
// The probes do not depend on which workload's traced run executes them,
// except bench.trace_overhead (the workload's traced op over one untraced
// op of the same workload) and host.calib_ms.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/archive.hpp"
#include "common/rng.hpp"
#include "obs/progress.hpp"
#include "persist/checkpoint.hpp"
#include "serve/server.hpp"
#include "sim/report.hpp"
#include "smt/pipeline.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"

namespace perfbench {

namespace sim = msim::sim;
namespace smt = msim::smt;

namespace {

// Standalone replay of run4t's four instruction streams.
constexpr std::uint64_t kReplayPerThread = 1'000'000;
constexpr std::size_t kReplayBatch = 4096;
constexpr std::size_t kBurst = 64;  ///< per-thread burst, as run_functional
// Pipeline::tick() is timed in chunks of this many cycles.
constexpr std::uint64_t kTickChunk = 4096;
constexpr std::uint64_t kFunctionalPerThread = 500'000;
// Observability overhead: shorter run4t variants, interleaved rounds.
constexpr std::uint64_t kObsHorizon = 250'000;
constexpr int kObsRounds = 3;
constexpr int kPersistReps = 3;
constexpr int kConstructReps = 9;
constexpr int kReportReps = 5;
constexpr int kRobustRounds = 3;
constexpr double kServeLoadSeconds = 3.0;
constexpr unsigned kServeClients = 4;

/// Runs `f` as one span named `name`; returns its host seconds.
template <typename F>
double timed(msim::obs::TimerRegistry& spans, std::string_view name, F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  const Clock::time_point end = Clock::now();
  spans.record_span(name, start, end);
  return std::chrono::duration<double>(end - start).count();
}

std::vector<msim::trace::BenchmarkProfile> profiles_of(const sim::RunConfig& cfg) {
  std::vector<msim::trace::BenchmarkProfile> out;
  for (const std::string& b : cfg.benchmarks) {
    out.push_back(msim::trace::profile_or_throw(b));
  }
  return out;
}

// ---- trace, mem, bpred: standalone replay --------------------------------------

struct ReplayResult {
  double next_ns = 0.0;
  double access_ns = 0.0;
  double predict_ns = 0.0;
};

/// Regenerates run4t's streams the way the Pipeline constructor seeds them
/// and replays their PCs, addresses and branches through a standalone
/// MemoryHierarchy and BranchPredictor of the same configuration.
ReplayResult replay_streams(const Context& ctx, Report& report) {
  const sim::RunConfig cfg = run4t_config(ctx.seed);
  const smt::MachineConfig mc = cfg.machine();
  const auto profiles = profiles_of(cfg);
  const auto threads = static_cast<msim::ThreadId>(profiles.size());

  std::vector<msim::trace::TraceGenerator> gens;
  msim::Rng seeder(cfg.seed);
  for (msim::ThreadId t = 0; t < threads; ++t) {
    gens.emplace_back(profiles[t], seeder.next_u64(),
                      msim::trace::AddressSpace::for_thread(t));
  }
  msim::mem::MemoryHierarchy mem(mc.memory);
  msim::bpred::BranchPredictor bpred(mc.predictor, threads);
  const msim::Addr line_mask = ~msim::Addr{mc.memory.l1i.line_bytes - 1};
  std::vector<msim::Addr> last_line(threads, ~msim::Addr{0});
  std::vector<std::vector<msim::isa::DynInst>> batch(
      threads, std::vector<msim::isa::DynInst>(kReplayBatch));

  double gen_s = 0.0, mem_s = 0.0, bpred_s = 0.0;
  std::uint64_t accesses = 0, branches = 0, sink = 0;
  msim::Cycle now = 0;
  msim::obs::TimerRegistry& spans = *ctx.spans;
  for (std::uint64_t done = 0; done < kReplayPerThread; done += kReplayBatch) {
    gen_s += timed(spans, "trace.next", [&] {
      for (msim::ThreadId t = 0; t < threads; ++t) {
        for (msim::isa::DynInst& inst : batch[t]) inst = gens[t].next();
      }
    });
    // Threads interleave in fixed bursts with one clock tick per
    // instruction, like the functional fast path.
    mem_s += timed(spans, "mem.access", [&] {
      for (std::size_t off = 0; off < kReplayBatch; off += kBurst) {
        for (msim::ThreadId t = 0; t < threads; ++t) {
          for (std::size_t i = off; i < off + kBurst; ++i) {
            const msim::isa::DynInst& inst = batch[t][i];
            ++now;
            if ((inst.pc & line_mask) != last_line[t]) {
              last_line[t] = inst.pc & line_mask;
              sink += mem.access_inst(inst.pc, now);
              ++accesses;
            }
            if (inst.is_mem()) {
              sink += mem.access_data(inst.mem_addr, inst.is_store(), now);
              ++accesses;
            }
          }
        }
      }
    });
    bpred_s += timed(spans, "bpred.predict_and_train", [&] {
      for (std::size_t off = 0; off < kReplayBatch; off += kBurst) {
        for (msim::ThreadId t = 0; t < threads; ++t) {
          for (std::size_t i = off; i < off + kBurst; ++i) {
            const msim::isa::DynInst& inst = batch[t][i];
            if (!inst.is_branch()) continue;
            sink += bpred.predict_and_train(t, inst.pc, inst.taken, inst.next_pc) ? 1 : 0;
            ++branches;
          }
        }
      }
    });
  }
  const double generated = static_cast<double>(kReplayPerThread) * threads;
  ReplayResult r;
  r.next_ns = gen_s * 1e9 / generated;
  r.access_ns = mem_s * 1e9 / static_cast<double>(accesses);
  r.predict_ns = bpred_s * 1e9 / static_cast<double>(branches);
  report.details["replay.instructions"] = generated;
  report.details["replay.mem_accesses"] = static_cast<double>(accesses);
  report.details["replay.branches"] = static_cast<double>(branches);
  report.details["replay.sink"] = static_cast<double>(sink % 1000);
  return r;
}

// ---- smt, core, persist, obs: run4t driven through Pipeline -------------------------

/// Ticks `pipe` until some thread has committed `target` instructions since
/// the last stats reset -- the exact stop rule of Pipeline::run -- timing
/// chunks of cycles.  Returns host seconds.
double tick_until(smt::Pipeline& pipe, std::uint64_t target,
                  msim::obs::TimerRegistry& spans) {
  auto reached = [&] {
    for (msim::ThreadId t = 0; t < pipe.thread_count(); ++t) {
      if (pipe.committed(t) >= target) return true;
    }
    return false;
  };
  double total = 0.0;
  while (!reached()) {
    total += timed(spans, "smt.tick", [&] {
      for (std::uint64_t c = 0; c < kTickChunk && !reached(); ++c) pipe.tick();
    });
  }
  return total;
}

void layers_run4t(const Context& ctx, Report& report, DigestCheck& digest,
                  double& traced_op_s) {
  msim::obs::TimerRegistry& spans = *ctx.spans;
  const sim::RunConfig cfg = run4t_config(ctx.seed);
  const smt::MachineConfig mc = cfg.machine();
  const auto profiles = profiles_of(cfg);

  std::vector<double> construct;
  for (int i = 0; i < kConstructReps; ++i) {
    construct.push_back(timed(spans, "smt.construct", [&] {
      const smt::Pipeline pipe(mc, profiles, cfg.seed);
    }));
  }
  report.metric("smt.construct_ms", median(construct) * 1e3, "ms");

  // The traced run4t op: run_simulation's exact tick sequence, in chunks.
  std::unique_ptr<smt::Pipeline> pipe;
  const double construct_s = timed(spans, "smt.construct", [&] {
    pipe = std::make_unique<smt::Pipeline>(mc, profiles, cfg.seed);
  });
  double tick_s = tick_until(*pipe, cfg.warmup, spans);
  const std::uint64_t warmup_committed = pipe->total_committed();
  pipe->reset_stats();
  tick_s += tick_until(*pipe, cfg.horizon, spans);
  traced_op_s = construct_s + tick_s;
  ++report.attempted;
  digest.check(hex64(pipe->commit_digest()), report);

  const std::uint64_t measured = pipe->total_committed();
  const std::uint64_t committed = warmup_committed + measured;
  const auto cycles = static_cast<double>(pipe->absolute_cycle());
  std::uint64_t generated = 0;
  for (msim::ThreadId t = 0; t < pipe->thread_count(); ++t) {
    generated += pipe->generator(t).generated();
  }
  report.metric("smt.tick_ns", tick_s * 1e9 / cycles, "ns");
  report.metric("smt.detailed_ns_per_inst",
                tick_s * 1e9 / static_cast<double>(committed), "ns");
  report.metric("trace.generated_per_commit",
                static_cast<double>(generated) / static_cast<double>(committed),
                "ratio");
  report.details["run4t.cycles"] = cycles;
  report.details["run4t.committed_with_warmup"] = static_cast<double>(committed);
  report.details["run4t.generated"] = static_cast<double>(generated);

  // Modelled statistics of the measured window: a pure speed change must
  // leave every one of them unchanged.
  const double kinst = static_cast<double>(measured) / 1e3;
  const msim::mem::HierarchyStats ms = pipe->memory().stats();
  report.metric("mem.l1d_mpki", static_cast<double>(ms.l1d.misses) / kinst, "1/kinst");
  report.metric("mem.l2_mpki", static_cast<double>(ms.l2.misses) / kinst, "1/kinst");
  report.metric("bpred.mispredict_rate",
                pipe->predictor().total_stats().mispredict_rate(), "ratio");
  report.metric("smt.cpi",
                static_cast<double>(pipe->cycles()) / static_cast<double>(measured),
                "cycles/inst");
  const msim::core::DispatchStats& ds = pipe->scheduler().dispatch_stats();
  report.metric("core.ooo_dispatch_frac",
                static_cast<double>(ds.ooo_dispatches) /
                    static_cast<double>(ds.dispatched),
                "ratio");
  report.metric("core.dispatch_cycle_frac",
                static_cast<double>(ds.cycles - ds.no_dispatch_cycles) /
                    static_cast<double>(ds.cycles),
                "ratio");
  report.metric("core.comparator_ops_per_inst",
                static_cast<double>(pipe->scheduler().iq().stats().comparator_ops) /
                    static_cast<double>(measured),
                "ops/inst");
  report.metric("core.dab_inserts", static_cast<double>(ds.dab_inserts), "count");

  // Checkpoint files of the final pipeline, and the in-memory Archive save
  // the sampled engine performs at every region boundary.
  const std::string ckpt = ctx.work_dir + "/run4t.ckpt";
  const msim::persist::CheckpointMeta meta{cfg.fingerprint(),
                                           msim::persist::RunPhase::kMeasure};
  std::vector<double> save, load, archive;
  for (int i = 0; i < kPersistReps; ++i) {
    save.push_back(timed(spans, "persist.save_checkpoint", [&] {
      msim::persist::save_checkpoint(ckpt, *pipe, meta);
    }));
    smt::Pipeline restored(mc, profiles, cfg.seed);
    load.push_back(timed(spans, "persist.load_checkpoint", [&] {
      (void)msim::persist::load_checkpoint(ckpt, restored, cfg.fingerprint());
    }));
    ++report.attempted;
    if (restored.commit_digest() != pipe->commit_digest()) {
      report.fail("persist: restored pipeline digest differs");
    }
  }
  std::size_t archive_bytes = 0;
  for (int i = 0; i < kPersistReps; ++i) {
    archive.push_back(timed(spans, "persist.archive_save", [&] {
      msim::persist::Archive ar = msim::persist::Archive::saver();
      pipe->save_state(ar);
      archive_bytes = ar.bytes().size();
    }));
  }
  report.metric("persist.save_ms", median(save) * 1e3, "ms");
  report.metric("persist.load_ms", median(load) * 1e3, "ms");
  report.metric("persist.checkpoint_bytes",
                static_cast<double>(std::filesystem::file_size(ckpt)), "bytes");
  report.metric("persist.archive_save_ms", median(archive) * 1e3, "ms");
  report.details["persist.archive_bytes"] = static_cast<double>(archive_bytes);
  std::filesystem::remove(ckpt);

  // Functional fast path over the same mix.
  double functional_ns = 0.0;
  {
    smt::Pipeline func(mc, profiles, cfg.seed);
    std::uint64_t executed = 0;
    const double s = timed(spans, "smt.run_functional", [&] {
      for (const smt::FunctionalDelta& d : func.run_functional(kFunctionalPerThread)) {
        executed += d.instructions;
      }
    });
    functional_ns = s * 1e9 / static_cast<double>(executed);
  }
  const double detailed_ns = report.metrics["smt.detailed_ns_per_inst"].value;
  report.metric("smt.functional_ns_per_inst", functional_ns, "ns");
  report.metric("smt.ooo_self_ns_per_inst", detailed_ns - functional_ns, "ns");
}

void layers_obs(const Context& ctx, Report& report) {
  sim::RunConfig base = run4t_config(ctx.seed);
  base.horizon = kObsHorizon;
  sim::RunConfig intervals = base;
  intervals.interval_cycles = 5'000;
  sim::RunConfig tracer = base;
  tracer.trace_capacity = std::size_t{1} << 20;
  std::vector<double> t_base, t_intervals, t_tracer;
  std::string digest;
  for (int round = 0; round < kObsRounds; ++round) {
    for (auto [cfg, out, name] :
         {std::tuple{&base, &t_base, "obs.off"},
          std::tuple{&intervals, &t_intervals, "obs.intervals"},
          std::tuple{&tracer, &t_tracer, "obs.tracer"}}) {
      OpResult op;
      timed(*ctx.spans, name, [&] { op = run4t_op(*cfg); });
      out->push_back(op.seconds);
      // Observability must not change the simulated machine.
      ++report.attempted;
      if (digest.empty()) digest = op.digest;
      if (op.digest != digest) report.fail(std::string(name) + ": digest changed");
    }
  }
  // Best of the rounds, as for the end-to-end timings (workloads.cpp).
  auto best = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  report.metric("obs.intervals_overhead", best(t_intervals) / best(t_base), "ratio");
  report.metric("obs.tracer_overhead", best(t_tracer) / best(t_base), "ratio");
}

// ---- sim: the executor, from the sweep's own timers --------------------------------

void layers_sweep(const Context& ctx, Report& report, DigestCheck& digest,
                  double& traced_op_s) {
  sim::SweepRequest req = sweep4t_request(ctx.seed);
  req.timers = ctx.spans;
  msim::obs::ProgressBus bus;
  req.progress_bus = &bus;
  sim::BaselineCache baselines(req.base);
  const std::size_t first_span = ctx.spans->spans().size();
  const SweepOp s = sweep_op(req, baselines);
  traced_op_s = s.op.seconds;

  report.attempted += s.mix_cells;
  if (s.failed_cells != 0) report.fail("sweep4t: cell(s) failed", s.failed_cells);
  digest.check(s.op.digest, report, s.mix_cells - s.failed_cells);

  // Cell spans of this sweep, per pool thread.
  const std::vector<msim::obs::TimerRegistry::Span> all = ctx.spans->spans();
  double sweep_start = 0.0, sweep_end = 0.0;
  std::vector<double> cell_s;
  std::map<std::uint32_t, double> last_end;  // pool thread -> last cell end
  for (std::size_t i = first_span; i < all.size(); ++i) {
    const auto& sp = all[i];
    if (sp.name == "sim.run_sweep") {
      sweep_start = sp.start_s;
      sweep_end = sp.start_s + sp.dur_s;
    } else if (sp.name.rfind("cell:", 0) == 0) {
      cell_s.push_back(sp.dur_s);
      double& e = last_end[sp.tid];
      e = std::max(e, sp.start_s + sp.dur_s);
    }
  }
  double busy = 0.0;
  for (const double c : cell_s) busy += c;
  double first_idle = sweep_end;
  for (const auto& [tid, end] : last_end) first_idle = std::min(first_idle, end);
  const double wall = sweep_end - sweep_start;

  std::vector<double> report_s;
  for (int i = 0; i < kReportReps; ++i) {
    report_s.push_back(timed(*ctx.spans, "sim.write_sweep_json", [&] {
      std::ostringstream os;
      sim::write_sweep_json(os, s.cells);
    }));
  }
  report.metric("sim.cell_s_p50", median(cell_s), "s");
  report.metric("sim.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()), "s");
  report.metric("sim.pool_busy_frac", busy / (req.jobs * wall), "ratio");
  report.metric("sim.tail_s", sweep_end - first_idle, "s");
  report.metric("sim.baseline_runs", static_cast<double>(s.baseline_runs), "count");
  report.metric("sim.report_ms", median(report_s) * 1e3, "ms");
  report.details["sim.cells_timed"] = static_cast<double>(cell_s.size());
  report.details["sim.progress_events"] = static_cast<double>(bus.published());
}

void layers_sampled(const Context& ctx, Report& report) {
  SampledOp s;
  timed(*ctx.spans, "sim.run_sampled", [&] {
    s = sampled_op(sampled_config(ctx.seed), sampled_knobs());
  });
  ++report.attempted;
  DigestCheck(ctx, "sampled").check(s.op.digest, report);
  const sim::SampledResult& r = s.result;
  report.metric("sim.sampled_detailed_frac",
                static_cast<double>(r.detailed_committed) /
                    static_cast<double>(r.exact_equivalent_instructions),
                "ratio");
  report.metric("sim.sampled_clusters", static_cast<double>(r.clusters), "count");
  report.details["sim.sampled_regions_total"] = static_cast<double>(r.regions_total);
  report.details["sim.sampled_functional_instructions"] =
      static_cast<double>(r.functional_instructions);
}

// ---- serve and robust ------------------------------------------------------------

/// One closed loop; returns the median job latency.
double serve_load(const Context& ctx, Report& report, std::uint16_t port,
                     const std::string& reference, msim::obs::TimerRegistry* spans) {
  const LoadResult load = closed_loop(port, kServeClients, kServeLoadSeconds,
                                      serve4c_job_json(ctx.seed, true), reference, spans);
  std::vector<double> total, submit, wait, run, result, bytes;
  for (const JobTiming& j : load.jobs) {
    ++report.attempted;
    if (!j.ok) {
      report.fail("serve4c job: " + j.error);
      continue;
    }
    total.push_back(j.total_s);
    submit.push_back(j.submit_s);
    wait.push_back(j.queue_wait_s);
    run.push_back(j.run_s);
    result.push_back(j.result_s);
    bytes.push_back(static_cast<double>(j.result_bytes));
  }
  if (spans) {
    report.metric("serve.submit_ms", median(submit) * 1e3, "ms");
    report.metric("serve.queue_wait_ms", median(wait) * 1e3, "ms");
    report.metric("serve.run_ms", median(run) * 1e3, "ms");
    report.metric("serve.result_ms", median(result) * 1e3, "ms");
    report.metric("serve.result_bytes", median(bytes), "bytes");
    report.details["serve.jobs"] = static_cast<double>(total.size());
  }
  return median(total);
}

void layers_serve(const Context& ctx, Report& report, double& traced_op_s,
                  double& untraced_op_s) {
  const sim::SweepRequest ref_req = serve4c_request(ctx.seed, false);
  sim::BaselineCache baselines(ref_req.base);
  const SweepOp ref = sweep_op(ref_req, baselines);
  const std::string& reference = ref.json;
  DigestCheck(ctx, "serve4c").check(ref.op.digest, report, /*ops=*/0);

  {
    const ScratchDir journal(ctx.work_dir + "/serve-layers-journal");
    msim::serve::ServerConfig config;
    config.max_inflight = 2;
    config.journal_dir = journal.path;
    msim::serve::ExperimentServer server(config);
    server.start();
    for (const bool process : {false, true}) {
      const JobTiming warm =
          serve_job(server.port(), serve4c_job_json(ctx.seed, process), reference);
      ++report.attempted;
      if (!warm.ok) report.fail("serve4c warm-up job: " + warm.error);
    }
    traced_op_s = serve_load(ctx, report, server.port(), reference, ctx.spans);
    if (ctx.workload == "serve4c") {
      untraced_op_s = serve_load(ctx, report, server.port(), reference, nullptr);
    }
    server.stop();
  }

  // Offline fork + worker-pipe cost per cell: the same sweep under the
  // process backend minus the thread backend, baselines already cached,
  // best of the rounds for each.
  const sim::SweepRequest process_req = serve4c_request(ctx.seed, true);
  double best_thread = 0.0, best_process = 0.0;
  for (int round = 0; round < kRobustRounds; ++round) {
    for (const bool process : {false, true}) {
      SweepOp s;
      timed(*ctx.spans, process ? "robust.sweep_process" : "robust.sweep_thread",
            [&] { s = sweep_op(process ? process_req : ref_req, baselines); });
      double& best = process ? best_process : best_thread;
      best = best == 0.0 ? s.op.seconds : std::min(best, s.op.seconds);
      ++report.attempted;
      if (s.op.digest != ref.op.digest) report.fail("robust: backend changed the sweep bytes");
    }
  }
  report.metric("robust.process_cell_overhead_ms",
                (best_process - best_thread) * 1e3 / static_cast<double>(ref.mix_cells),
                "ms");
}

}  // namespace

void run_layer_suite(const Context& ctx, Report& report) {
  const ReplayResult replay = replay_streams(ctx, report);
  report.metric("trace.next_ns", replay.next_ns, "ns");
  report.metric("mem.access_ns", replay.access_ns, "ns");
  report.metric("bpred.predict_ns", replay.predict_ns, "ns");

  // bench.trace_overhead compares the workload's traced op with one
  // untraced op run right after it, so host drift hits both alike.  Each
  // pair shares one digest check, so the traced op must give the untraced
  // op's output at unpinned seeds too.
  double traced = 0.0, untraced = 0.0;
  DigestCheck run4t_digest(ctx, "run4t.input0");
  layers_run4t(ctx, report, run4t_digest, traced);
  // Share of the traced run4t op spent generating instructions, from the
  // standalone cost per next() and the run's generated count (the gprof
  // comparison in NOTES.md).
  report.details["trace.share_of_run4t"] =
      replay.next_ns * report.details["run4t.generated"] / 1e9 / traced;
  if (ctx.workload == "run4t") {
    const OpResult op = run4t_op(run4t_config(ctx.seed));
    ++report.attempted;
    run4t_digest.check(op.digest, report);
    untraced = op.seconds;
  }
  layers_obs(ctx, report);

  double sweep_traced = 0.0;
  DigestCheck sweep_digest(ctx, "sweep4t");
  layers_sweep(ctx, report, sweep_digest, sweep_traced);
  if (ctx.workload == "sweep4t") {
    traced = sweep_traced;
    const sim::SweepRequest req = sweep4t_request(ctx.seed);
    sim::BaselineCache baselines(req.base);
    const SweepOp s = sweep_op(req, baselines);
    report.attempted += s.mix_cells;
    sweep_digest.check(s.op.digest, report, s.mix_cells);
    untraced = s.op.seconds;
  }
  layers_sampled(ctx, report);

  double serve_traced = 0.0, serve_untraced = 0.0;
  layers_serve(ctx, report, serve_traced, serve_untraced);
  if (ctx.workload == "serve4c") {
    traced = serve_traced;
    untraced = serve_untraced;
  }
  report.metric("bench.trace_overhead", traced / untraced, "ratio");
}

}  // namespace perfbench
