// Quickstart: simulate one 2-thread SPEC-style mix under all three
// scheduler designs at a 64-entry issue queue and print the headline
// numbers the paper is about.
//
//   ./quickstart [key=value ...]   e.g. ./quickstart iq=96 horizon=500000
#include <iostream>
#include <span>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "trace/mixes.hpp"

int main(int argc, char** argv) {
  using namespace msim;
  const KvConfig cli = KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});

  sim::RunConfig base;
  base.iq_entries = cli.get_uint<std::uint32_t>("iq", 64);
  base.warmup = cli.get_uint("warmup", 20'000);
  base.horizon = cli.get_uint("horizon", 100'000);
  base.seed = cli.get_uint("seed", 1);
  const std::string mix_name = cli.get_string("mix", "2T-mix1");

  const trace::WorkloadMix& mix = trace::mix_or_throw(mix_name);
  std::cout << "workload " << mix.name << " (" << trace::describe_mix(mix) << "):";
  for (const auto bench : mix.threads()) std::cout << ' ' << bench;
  std::cout << "\niq_entries=" << base.iq_entries << " horizon=" << base.horizon
            << "\n\n";

  sim::BaselineCache baselines(base);
  TextTable table({"scheduler", "throughput_ipc", "fairness", "all_stall_frac",
                   "iq_residency", "cycles"});
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock,
        core::SchedulerKind::kTwoOpBlockOoo}) {
    const sim::MixResult r =
        sim::run_mix(mix, kind, base.iq_entries, base, baselines);
    table.begin_row();
    table.add_cell(core::scheduler_kind_name(kind));
    table.add_cell(r.throughput_ipc, 3);
    table.add_cell(r.fairness, 3);
    table.add_cell(r.raw.dispatch.all_stall_fraction(), 3);
    table.add_cell(r.raw.iq.mean_residency(), 1);
    table.add_cell(r.raw.cycles);
  }
  table.print(std::cout, "quickstart: scheduler face-off on " + mix_name);
  return 0;
}
