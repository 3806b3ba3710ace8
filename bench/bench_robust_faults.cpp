// Fault-injection campaign: the forward-progress acceptance bench.
//
// Part 1 (resilience): runs >= `plans` randomized fault plans
// (robust::FaultPlan::random — NDI storms, transient IQ/ROB/LSQ exhaustion,
// latency perturbation) against the out-of-order dispatch scheduler with
// cycle-level invariant checking and the hang watchdog armed, across
// {2T, 4T} x {DAB, WATCHDOG} deadlock-remedy combinations.  The machine
// must absorb every plan: zero invariant violations and zero hang-watchdog
// firings, in both modes — DAB always rescues the oldest instruction, and
// watchdog flush/replay restores progress.
//
// Part 2 (sabotage self-tests): manufactures guaranteed failures to prove
// the detectors detect.  A commit blockade must trip the hang watchdog in
// every combination and yield a parseable JSON diagnostic bundle; dropped
// dispatches must trip the invariant checker; a sabotage plan targeted
// at exactly one sweep cell's RNG stream must be isolated by run_sweep —
// partial results, the victim reported, every surviving cell bit-identical
// to a fault-free serial sweep; and a journaled sweep killed mid-grid by a
// deterministic fault-hook abort must resume from its write-ahead journal
// with byte-identical aggregate JSON (docs/CHECKPOINT.md).
//
// Options: plans=N intensity=P seed=N quick=1 jobs=N sabotage=0|1
//          warmup=N horizon=N diag_dir=PATH
// Exit codes: 0 all checks passed; 1 a resilience or self-test expectation
// failed; 2 bad usage.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "robust/fault.hpp"
#include "robust/invariant.hpp"

namespace {

using namespace msim;

struct Combo {
  unsigned threads;
  core::DeadlockMode deadlock;
  const char* name;
};

constexpr Combo kCombos[] = {
    {2, core::DeadlockMode::kAvoidanceBuffer, "2T/dab"},
    {4, core::DeadlockMode::kAvoidanceBuffer, "4T/dab"},
    {2, core::DeadlockMode::kWatchdog, "2T/watchdog"},
    {4, core::DeadlockMode::kWatchdog, "4T/watchdog"},
};

struct CampaignOptions {
  std::uint64_t plans = 200;
  double intensity = 0.35;
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  bool sabotage = true;
  std::string diag_dir;
  sim::RunConfig base;
};

/// One fault-plan run: which combo it used and how it ended.
struct PlanOutcome {
  std::size_t combo = 0;
  bool aborted = false;  ///< hang watchdog or invariant violation
  std::string error;
  std::string bundle;
  std::uint64_t dab_inserts = 0;
  std::uint64_t watchdog_flushes = 0;
  std::uint64_t forced_ndis = 0;
  std::uint64_t iq_denials = 0;
};

sim::RunConfig plan_config(const CampaignOptions& opts, const Combo& combo,
                           std::uint64_t index) {
  const auto mixes = trace::mixes_for(combo.threads);
  const trace::WorkloadMix& mix = mixes[index % mixes.size()];
  sim::RunConfig cfg = opts.base;
  cfg.benchmarks.clear();
  for (const std::string_view b : mix.threads()) cfg.benchmarks.emplace_back(b);
  cfg.kind = core::SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 64;
  cfg.deadlock = combo.deadlock;
  cfg.watchdog_timeout = 200;
  cfg.verify = true;
  cfg.hang_cycles = 100'000;
  cfg.seed = derive_stream_seed(opts.seed, "robust-bench", index,
                                static_cast<std::uint64_t>(&combo - kCombos));
  return cfg;
}

PlanOutcome run_plan(const CampaignOptions& opts, std::uint64_t index) {
  PlanOutcome out;
  out.combo = static_cast<std::size_t>(index % std::size(kCombos));
  const Combo& combo = kCombos[out.combo];
  const robust::FaultPlan plan =
      robust::FaultPlan::random(opts.seed, index, opts.intensity);
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = plan_config(opts, combo, index);
  cfg.faults = &injector;
  try {
    const sim::RunResult r = sim::run_simulation(cfg);
    out.dab_inserts = r.dispatch.dab_inserts;
    out.watchdog_flushes = r.dispatch.watchdog_flushes;
    out.forced_ndis = r.dispatch.fault_forced_ndis;
    out.iq_denials = r.dispatch.fault_iq_denials;
  } catch (const robust::SimulationAborted& e) {
    out.aborted = true;
    out.error = e.what();
    out.bundle = e.bundle();
  }
  return out;
}

void write_diag(const CampaignOptions& opts, const std::string& stem,
                const std::string& bundle) {
  if (opts.diag_dir.empty() || bundle.empty()) return;
  std::filesystem::create_directories(opts.diag_dir);
  const std::string path = opts.diag_dir + "/" + stem + ".json";
  std::ofstream out(path);
  if (out) {
    out << bundle;
    std::cerr << "  wrote diagnostic bundle: " << path << "\n";
  }
}

/// Part 1: the machine must survive every randomized (non-sabotage) plan.
int run_resilience(const CampaignOptions& opts) {
  std::cout << "== resilience: " << opts.plans << " fault plans, intensity "
            << opts.intensity << ", jobs=" << opts.jobs << "\n";
  std::vector<PlanOutcome> outcomes(opts.plans);
  {
    ThreadPool pool(opts.jobs);
    std::vector<std::future<void>> pending;
    pending.reserve(opts.plans);
    for (std::uint64_t i = 0; i < opts.plans; ++i) {
      pending.push_back(
          pool.submit([&, i] { outcomes[i] = run_plan(opts, i); }));
    }
    for (auto& f : pending) f.get();
  }

  int failures = 0;
  struct Tally {
    std::uint64_t runs = 0, aborts = 0, dab_inserts = 0, watchdog_flushes = 0,
                  forced_ndis = 0, iq_denials = 0;
  };
  Tally tally[std::size(kCombos)];
  for (std::uint64_t i = 0; i < opts.plans; ++i) {
    const PlanOutcome& o = outcomes[i];
    Tally& t = tally[o.combo];
    ++t.runs;
    t.dab_inserts += o.dab_inserts;
    t.watchdog_flushes += o.watchdog_flushes;
    t.forced_ndis += o.forced_ndis;
    t.iq_denials += o.iq_denials;
    if (o.aborted) {
      ++t.aborts;
      ++failures;
      std::cerr << "FAIL plan " << i << " (" << kCombos[o.combo].name
                << "): " << o.error << "\n";
      write_diag(opts, "resilience-plan-" + std::to_string(i), o.bundle);
    }
  }

  TextTable table({"combo", "runs", "aborts", "dab_inserts",
                   "watchdog_flushes", "forced_ndis", "iq_denials"});
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    table.begin_row();
    table.add_cell(kCombos[c].name);
    table.add_cell(tally[c].runs);
    table.add_cell(tally[c].aborts);
    table.add_cell(tally[c].dab_inserts);
    table.add_cell(tally[c].watchdog_flushes);
    table.add_cell(tally[c].forced_ndis);
    table.add_cell(tally[c].iq_denials);
  }
  table.print(std::cout, "fault-plan outcomes (aborts must be 0)");
  return failures;
}

/// Self-test 1: a commit blockade must trip the hang watchdog in every
/// combination, with a parseable diagnostic bundle.
int test_hang_detection(const CampaignOptions& opts) {
  std::cout << "== sabotage: commit blockade must trip the hang watchdog\n";
  int failures = 0;
  robust::FaultPlan plan;
  plan.commit_block_from = 0;  // commit never proceeds
  const robust::FaultInjector injector(plan);
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    sim::RunConfig cfg = plan_config(opts, kCombos[c], c);
    cfg.faults = &injector;
    cfg.hang_cycles = 3'000;  // small: every hang costs this many cycles
    cfg.watchdog_timeout = 200;
    bool detected = false;
    std::string note = "completed without detecting the blockade";
    try {
      (void)sim::run_simulation(cfg);
    } catch (const robust::SimulationAborted& e) {
      detected = true;
      write_diag(opts, std::string("sabotage-hang-") + std::to_string(c),
                 e.bundle());
      try {
        const JsonValue doc = JsonValue::parse(e.bundle());
        const double cycle = doc.at("cycle").as_number();
        note = "detected: " + doc.at("reason").as_string().substr(0, 60) +
               "... at cycle " + std::to_string(static_cast<std::uint64_t>(cycle));
        if (!doc.contains("occupancy") || !doc.contains("stats")) {
          detected = false;
          note = "bundle is missing occupancy/stats sections";
        }
      } catch (const std::exception& parse_error) {
        detected = false;
        note = std::string("bundle is not parseable JSON: ") + parse_error.what();
      }
    }
    std::cout << "  " << kCombos[c].name << ": " << note << "\n";
    if (!detected) {
      ++failures;
      std::cerr << "FAIL hang self-test (" << kCombos[c].name << ")\n";
    }
  }
  return failures;
}

/// Self-test 2: dropped dispatches leak IQ/ROB accounting; the cycle-level
/// invariant checker must catch it.
int test_invariant_detection(const CampaignOptions& opts) {
  std::cout << "== sabotage: dropped dispatches must trip the invariant checker\n";
  robust::FaultPlan plan;
  plan.drop_dispatch_p = 0.05;
  plan.seed = opts.seed;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg = plan_config(opts, kCombos[0], 0);
  cfg.faults = &injector;
  cfg.hang_cycles = 3'000;  // the leak may also starve commit; either detector may fire
  try {
    (void)sim::run_simulation(cfg);
  } catch (const robust::SimulationAborted& e) {
    std::cout << "  detected: " << std::string(e.what()).substr(0, 100) << "\n";
    write_diag(opts, "sabotage-invariant", e.bundle());
    return 0;
  }
  std::cerr << "FAIL invariant self-test: run completed despite dropped "
               "dispatches\n";
  return 1;
}

/// Self-test 3: a sabotage plan aimed at one sweep cell's RNG stream must
/// be isolated — partial results, the victim reported, survivors
/// bit-identical to a fault-free serial sweep.
int test_sweep_isolation(const CampaignOptions& opts) {
  std::cout << "== sabotage: run_sweep must isolate a single poisoned cell\n";
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32, 48};
  req.base = opts.base;
  req.base.verify = true;
  req.base.hang_cycles = 3'000;

  // Reference: fault-free, serial.
  sim::BaselineCache clean_baselines(req.base);
  const std::vector<sim::SweepCell> clean = run_sweep(req, clean_baselines);

  // Poison exactly the (iq=48, first mix) stream; both scheduler kinds
  // share that stream by design (paired comparison), so both cells fail.
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 48);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;
  req.jobs = opts.jobs;
  req.retries = 1;

  sim::BaselineCache baselines(req.base);
  const std::vector<sim::SweepCell> cells = run_sweep(req, baselines);

  int failures = 0;
  const std::vector<sim::FailedCell> failed = sim::sweep_failures(cells);
  if (failed.size() != req.kinds.size()) {
    ++failures;
    std::cerr << "FAIL sweep isolation: expected " << req.kinds.size()
              << " failed cells (one per kind), got " << failed.size() << "\n";
  }
  for (const sim::FailedCell& f : failed) {
    std::cout << "  failed as expected: " << core::scheduler_kind_name(f.kind)
              << " iq=" << f.iq_entries << " " << f.mix_name << " ("
              << f.attempts << " attempts)\n";
    if (f.mix_name != victim || f.iq_entries != 48) {
      ++failures;
      std::cerr << "FAIL sweep isolation: non-victim cell died: " << f.mix_name
                << " iq=" << f.iq_entries << ": " << f.error << "\n";
    }
  }

  // Survivors must be bit-identical to the fault-free serial sweep.
  std::uint64_t compared = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t m = 0; m < cells[c].mixes.size(); ++m) {
      const sim::MixResult& got = cells[c].mixes[m];
      const sim::MixResult& want = clean[c].mixes[m];
      if (!got.ok) continue;
      ++compared;
      if (got.raw.cycles != want.raw.cycles ||
          got.throughput_ipc != want.throughput_ipc ||
          got.fairness != want.fairness) {
        ++failures;
        std::cerr << "FAIL sweep isolation: surviving cell diverged: "
                  << core::scheduler_kind_name(cells[c].kind) << " iq="
                  << cells[c].iq_entries << " " << got.mix_name << "\n";
      }
    }
  }
  std::cout << "  " << compared << " surviving cells bit-identical to the "
            << "fault-free serial sweep\n";
  if (compared == 0) ++failures;
  return failures;
}

/// Self-test 4: a journaled sweep killed mid-grid by a deterministic
/// fault-hook abort must resume from its write-ahead journal and emit
/// byte-identical aggregate JSON.
int test_kill_resume(const CampaignOptions& opts) {
  std::cout << "== recovery: killed sweep must resume from its journal "
               "byte-identically\n";
  sim::SweepRequest req;
  req.thread_count = 2;
  req.kinds = {core::SchedulerKind::kTraditional,
               core::SchedulerKind::kTwoOpBlockOoo};
  req.iq_sizes = {32, 48};
  req.base = opts.base;
  req.base.verify = true;
  req.base.hang_cycles = 3'000;

  // The same commit-blockade sabotage as the isolation self-test: the
  // poisoned (iq=48, first mix) stream hangs both scheduler kinds.
  const std::string victim(trace::mixes_for(2).front().name);
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  plan.target_stream = derive_stream_seed(req.base.seed, "mix:" + victim, 48);
  const robust::FaultInjector injector(plan);
  req.base.faults = &injector;

  const auto sweep_json = [](const std::vector<sim::SweepCell>& cells) {
    std::ostringstream os;
    sim::write_sweep_json(os, cells);
    return os.str();
  };

  // Reference: one uninterrupted crash-isolated sweep — the victim cells
  // are recorded as failures, everything else completes.
  std::string want;
  {
    sim::SweepRequest ref = req;
    ref.jobs = opts.jobs;
    sim::BaselineCache baselines(ref.base);
    want = sweep_json(run_sweep(ref, baselines));
  }

  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("msim-robust-journal-" + std::to_string(::getpid()) + ".jsonl"))
          .string();

  int failures = 0;
  // Phase 1: serial, crash isolation off, journaling on.  The victim's
  // hang-watchdog abort kills the sweep mid-grid at a deterministic cell,
  // leaving exactly the completed cells in the journal.
  std::size_t journaled = 0;
  {
    sim::SweepRequest killed = req;
    killed.jobs = 1;
    killed.isolate_failures = false;
    killed.journal_path = journal;
    sim::BaselineCache baselines(killed.base);
    bool died = false;
    try {
      (void)run_sweep(killed, baselines);
    } catch (const robust::SimulationAborted&) {
      died = true;
    }
    if (!died) {
      ++failures;
      std::cerr << "FAIL kill/resume: un-isolated sweep survived the "
                   "poisoned cell\n";
    }
  }

  // Phase 2: resume the same grid with isolation back on, at the requested
  // job count — journaled cells replay, the rest (victim included) run
  // fresh.  The aggregate JSON must match the uninterrupted sweep exactly.
  {
    sim::SweepRequest resumed = req;
    resumed.jobs = opts.jobs;
    resumed.journal_path = journal;
    resumed.resume = true;
    resumed.progress = [&journaled](std::string_view msg) {
      if (msg.find("journal: replaying") != std::string_view::npos) {
        ++journaled;
      }
    };
    sim::BaselineCache baselines(resumed.base);
    const std::string got = sweep_json(run_sweep(resumed, baselines));
    if (journaled == 0) {
      ++failures;
      std::cerr << "FAIL kill/resume: the killed sweep journaled no "
                   "completed cells to replay\n";
    }
    if (got != want) {
      ++failures;
      std::cerr << "FAIL kill/resume: resumed sweep JSON differs from the "
                   "uninterrupted sweep (" << got.size() << " vs "
                << want.size() << " bytes)\n";
    } else {
      std::cout << "  resumed sweep JSON byte-identical to the uninterrupted "
                   "sweep (" << got.size() << " bytes) at jobs=" << opts.jobs
                << "\n";
    }
  }
  std::filesystem::remove(journal);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main([&]() -> int {
    const KvConfig cli =
        KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});
    static constexpr std::string_view kKnown[] = {
        "plans", "intensity", "seed", "quick", "jobs", "sabotage",
        "warmup", "horizon", "diag_dir"};
    const auto unknown = cli.unknown_keys(kKnown);
    if (!unknown.empty()) {
      std::string msg = "unknown option(s):";
      for (const std::string& k : unknown) msg += " " + k;
      msg += " (known: plans intensity seed quick jobs sabotage warmup "
             "horizon diag_dir; see the knob table in EXPERIMENTS.md)";
      throw std::invalid_argument(msg);
    }

    CampaignOptions opts;
    opts.plans = cli.get_uint("plans", 200);
    opts.intensity = cli.get_double("intensity", 0.35);
    opts.seed = cli.get_uint("seed", 1);
    opts.sabotage = cli.get_bool("sabotage", true);
    opts.diag_dir = cli.get_string("diag_dir", "");
    opts.base.warmup = cli.get_uint("warmup", 2'000);
    opts.base.horizon = cli.get_uint("horizon", 10'000);
    opts.base.seed = opts.seed;
    if (cli.get_bool("quick", false)) {
      opts.plans = std::max<std::uint64_t>(opts.plans / 4, 40);
      opts.base.warmup /= 4;
      opts.base.horizon /= 4;
    }
    opts.jobs = cli.get_uint<unsigned>("jobs", ThreadPool::default_parallelism());
    if (opts.jobs == 0) throw std::invalid_argument("jobs=0 is invalid");
    if (opts.intensity < 0.0 || opts.intensity > 1.0) {
      throw std::invalid_argument("intensity must be in [0, 1]");
    }

    int failures = run_resilience(opts);
    if (opts.sabotage) {
      failures += test_hang_detection(opts);
      failures += test_invariant_detection(opts);
      failures += test_sweep_isolation(opts);
      failures += test_kill_resume(opts);
    }
    if (failures != 0) {
      std::cerr << "\nbench_robust_faults: " << failures << " check(s) FAILED\n";
      return 1;
    }
    std::cout << "\nbench_robust_faults: all checks passed\n";
    return 0;
  });
}
