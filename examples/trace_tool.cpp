// trace_tool: record synthetic instruction traces to disk and inspect them.
//
//   ./trace_tool mode=record bench=gcc n=100000 out=/tmp/gcc.trc [seed=1]
//   ./trace_tool mode=inspect in=/tmp/gcc.trc
//
// Recorded traces use the self-contained binary format in
// src/trace/trace_io.hpp -- handy for diffing generator changes, feeding
// external analysis scripts, or regression-pinning a workload.
#include <iostream>
#include <stdexcept>

#include "common/config.hpp"
#include "common/table.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace msim;

int record(const KvConfig& cli) {
  const std::string bench = cli.get_string("bench", "gcc");
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw std::invalid_argument("record mode needs out=<path>");
  const std::uint64_t n = cli.get_uint("n", 100'000);
  const std::uint64_t seed = cli.get_uint("seed", 1);

  trace::TraceGenerator gen(trace::profile_or_throw(bench), seed);
  std::vector<isa::DynInst> insts;
  insts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) insts.push_back(gen.next());
  trace::write_trace(out, insts);
  std::cout << "recorded " << n << " instructions of '" << bench << "' (seed "
            << seed << ") to " << out << "\n";
  return 0;
}

int inspect(const KvConfig& cli) {
  const std::string in = cli.get_string("in", "");
  if (in.empty()) throw std::invalid_argument("inspect mode needs in=<path>");
  const std::vector<isa::DynInst> insts = trace::read_trace(in);
  const trace::TraceSummary s = trace::summarize_trace(insts);

  TextTable t({"metric", "value"});
  auto row = [&t](std::string_view k, double v, int prec = 3) {
    t.begin_row();
    t.add_cell(k);
    t.add_cell(v, prec);
  };
  row("instructions", static_cast<double>(s.instructions), 0);
  row("unique pcs", static_cast<double>(s.unique_pcs), 0);
  row("branch fraction",
      static_cast<double>(s.branches) / static_cast<double>(s.instructions));
  row("taken fraction of branches",
      s.branches ? static_cast<double>(s.taken_branches) /
                       static_cast<double>(s.branches)
                 : 0.0);
  row("load fraction",
      static_cast<double>(s.loads) / static_cast<double>(s.instructions));
  row("store fraction",
      static_cast<double>(s.stores) / static_cast<double>(s.instructions));
  row("two-register-source fraction",
      static_cast<double>(s.with_two_sources) / static_cast<double>(s.instructions));
  row("mean basic-block length", s.mean_block_length, 1);
  t.print(std::cout, "trace summary: " + in);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const KvConfig cli = KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});
    const std::string mode = cli.get_string("mode", "record");
    if (mode == "record") return record(cli);
    if (mode == "inspect") return inspect(cli);
    std::cerr << "unknown mode '" << mode << "' (record | inspect)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
