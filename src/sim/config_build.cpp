#include "sim/config_build.hpp"

#include <algorithm>
#include <stdexcept>

#include "robust/fault.hpp"

namespace msim::sim {

core::SchedulerKind parse_scheduler_kind(const std::string& name) {
  for (const auto kind :
       {core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
        core::SchedulerKind::kTwoOpBlockOoo,
        core::SchedulerKind::kTwoOpBlockOooFiltered,
        core::SchedulerKind::kTagElimination}) {
    if (name == core::scheduler_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown sched: '" + name + "'");
}

smt::FetchPolicy parse_fetch_policy(const std::string& name) {
  for (const auto policy :
       {smt::FetchPolicy::kIcount, smt::FetchPolicy::kRoundRobin,
        smt::FetchPolicy::kStall, smt::FetchPolicy::kFlush}) {
    if (name == smt::fetch_policy_name(policy)) return policy;
  }
  throw std::invalid_argument("unknown fetch: '" + name + "'");
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> normalize_cli_args(
    int argc, char** argv, std::span<const std::string_view> value_flags) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      a.erase(0, 2);
      std::replace(a.begin(), a.end(), '-', '_');
      if (a.find('=') == std::string::npos) {
        const bool takes_value =
            std::find(value_flags.begin(), value_flags.end(), a) !=
            value_flags.end();
        if (takes_value) {
          if (i + 1 >= argc) {
            throw std::invalid_argument("--" + a + " requires a value");
          }
          a += '=';
          a += argv[++i];
        } else {
          a += "=1";
        }
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

BuiltRun build_run_config(const KvConfig& kv) {
  BuiltRun built;
  RunConfig& cfg = built.config;
  cfg.benchmarks = split_csv(kv.get_string("benchmarks", "gcc"));
  if (kv.get_uint<unsigned>("sweep", 0) == 0) {
    cfg.kind = parse_scheduler_kind(kv.get_string("sched", "traditional"));
    cfg.iq_entries = kv.get_uint<std::uint32_t>("iq", 64);
  }
  cfg.fetch_policy = parse_fetch_policy(kv.get_string("fetch", "icount"));
  cfg.scan_depth = kv.get_uint<std::uint32_t>("scan_depth", 0);
  cfg.watchdog_timeout = kv.get_uint<std::uint32_t>("watchdog_timeout", 450);
  cfg.oracle_disambiguation = kv.get_bool("oracle_disambiguation", true);
  cfg.model_wrong_path = kv.get_bool("wrong_path", false);
  cfg.warmup = kv.get_uint("warmup", 20'000);
  cfg.horizon = kv.get_uint("horizon", 100'000);
  cfg.seed = kv.get_uint("seed", 1);
  cfg.max_cycles = kv.get_uint("max_cycles", 0);
  const std::string deadlock = kv.get_string("deadlock", "dab");
  if (deadlock == "dab") {
    cfg.deadlock = core::DeadlockMode::kAvoidanceBuffer;
  } else if (deadlock == "dab_shared") {
    cfg.deadlock = core::DeadlockMode::kAvoidanceBuffer;
    cfg.dab_exclusive = false;
  } else if (deadlock == "watchdog") {
    cfg.deadlock = core::DeadlockMode::kWatchdog;
  } else {
    throw std::invalid_argument("unknown deadlock: '" + deadlock + "'");
  }

  cfg.verify = kv.get_bool("verify", false);
  cfg.hang_cycles = kv.get_uint("hang_cycles", 500'000);
  cfg.interval_cycles = kv.get_uint("interval", 0);

  const double fault_intensity = kv.get_double("fault_intensity", 0.0);
  if (fault_intensity > 0.0) {
    const robust::FaultPlan plan =
        robust::FaultPlan::random(kv.get_uint("fault_seed", 1),
                                  kv.get_uint("fault_index", 0),
                                  fault_intensity);
    built.fault_note = plan.describe();
    built.injector = std::make_shared<robust::FaultInjector>(plan);
    cfg.faults = built.injector.get();
  }
  return built;
}

SweepRequest build_sweep_request(const KvConfig& kv, const RunConfig& base,
                                 unsigned thread_count, unsigned jobs) {
  SweepRequest req;
  req.thread_count = thread_count;
  for (const std::string& name : split_csv(
           kv.get_string("sched", "traditional,2op_block,2op_block_ooo"))) {
    req.kinds.push_back(parse_scheduler_kind(name));
  }
  req.iq_sizes =
      kv.get_uint_list<std::uint32_t>("iq", {32, 48, 64, 96, 128});
  req.base = base;
  req.jobs = jobs;
  req.isolate_failures = kv.get_bool("isolate", true);
  req.retries = kv.get_uint<unsigned>("retries", 1);
  // Process isolation (docs/ROBUSTNESS.md): workers= implies the process
  // backend, so `workers=4` alone does the expected thing.
  const std::string isolation = kv.get_string("isolation", "");
  const unsigned workers = kv.get_uint<unsigned>("workers", 0);
  if (isolation == "process" || (isolation.empty() && workers != 0)) {
    req.isolation = SweepIsolation::kProcess;
    req.workers = workers;
  } else if (!isolation.empty() && isolation != "thread") {
    throw std::invalid_argument("unknown isolation: '" + isolation +
                                "' (thread | process)");
  } else if (workers != 0) {
    throw std::invalid_argument(
        "workers= selects worker processes and requires isolation=process "
        "(or drop isolation= and let workers= imply it)");
  }
  req.cell_timeout_ms = kv.get_uint("cell_timeout_ms", 0);
  req.chaos = kv.get_string("chaos", "");
  return req;
}

JobSpec build_job(const KvConfig& kv, unsigned default_jobs) {
  const std::string mode = kv.get_string("mode", "exact");
  if (mode != "exact" && mode != "sampled") {
    throw std::invalid_argument("unknown mode: '" + mode + "' (exact | sampled)");
  }
  const unsigned sweep = kv.get_uint<unsigned>("sweep", 0);
  if (sweep != 0 && mode == "sampled") {
    throw std::invalid_argument(
        "mode=sampled is single-run only; sweep cells are exact simulations");
  }
  const unsigned jobs = kv.get_uint<unsigned>("jobs", default_jobs);
  if (jobs == 0) throw std::invalid_argument("jobs=0 is invalid: use jobs>=1");

  JobSpec spec;
  spec.built = build_run_config(kv);
  if (sweep != 0) {
    spec.mode = JobMode::kSweep;
    spec.sweep = build_sweep_request(kv, spec.built.config, sweep, jobs);
    spec.sweep.validate();
  } else if (mode == "sampled") {
    spec.mode = JobMode::kSampled;
    SampledConfig& s = spec.sampled;
    s.region_length = kv.get_uint("region", s.region_length);
    s.detail_warmup = kv.get_uint("detail_warmup", s.detail_warmup);
    s.pilot = kv.get_uint("pilot", s.pilot);
    s.jobs = jobs;
    s.validate(spec.built.config);
  } else {
    spec.built.config.validate();
  }
  return spec;
}

}  // namespace msim::sim
