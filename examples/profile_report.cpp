// Benchmark characterization report: runs every synthetic SPEC2000 stand-in
// single-threaded on the traditional scheduler and prints the properties
// that drive the paper's experiments -- exactly the data Section 2 uses to
// classify benchmarks into low / medium / high ILP.
//
//   ./profile_report [iq=64] [horizon=100000] [bench=gcc]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/run.hpp"
#include "trace/profile.hpp"

int main(int argc, char** argv) {
  using namespace msim;
  const KvConfig cli = KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});

  sim::RunConfig base;
  base.iq_entries = cli.get_uint<std::uint32_t>("iq", 64);
  base.warmup = cli.get_uint("warmup", 20'000);
  base.horizon = cli.get_uint("horizon", 100'000);
  base.seed = cli.get_uint("seed", 1);
  const std::string only = cli.get_string("bench", "");

  TextTable table({"benchmark", "class", "ipc", "l1d_miss", "l2_miss",
                   "bpred_misp", "2src_nonready_frac", "iq_residency"});
  for (const trace::BenchmarkProfile& p : trace::all_profiles()) {
    if (!only.empty() && p.name != only) continue;
    sim::RunConfig cfg = base;
    cfg.benchmarks = {std::string(p.name)};
    cfg.kind = core::SchedulerKind::kTraditional;
    const sim::RunResult r = sim::run_simulation(cfg);

    const auto& d = r.dispatch;
    const double total_dispatched =
        static_cast<double>(d.dispatched_by_nonready[0] + d.dispatched_by_nonready[1] +
                            d.dispatched_by_nonready[2]);
    table.begin_row();
    table.add_cell(p.name);
    table.add_cell(trace::ilp_class_name(p.ilp));
    table.add_cell(r.throughput_ipc, 2);
    table.add_cell(r.memory.l1d.miss_rate(), 3);
    table.add_cell(r.memory.l2.miss_rate(), 3);
    table.add_cell(r.bpred.mispredict_rate(), 3);
    table.add_cell(total_dispatched > 0
                       ? static_cast<double>(d.dispatched_by_nonready[2]) / total_dispatched
                       : 0.0,
                   3);
    table.add_cell(r.iq.mean_residency(), 1);
  }
  table.print(std::cout, "single-thread benchmark characterization");
  return 0;
}
