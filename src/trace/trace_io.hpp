// Binary trace serialization: record synthetic instruction streams to disk
// and load them back, for offline analysis, debugging, and interchange with
// external tools.
//
// Format: the 8-byte magic "MSIMTRC2", then a persist::Archive stream
// (little-endian on every host): the u64 instruction count, then each
// record's isa::io_dyn_inst fields (isa/instruction_io.hpp, the field list
// checkpoints use), 37 bytes per instruction.
//
// The format is self-contained and versioned by the magic; readers reject
// anything else, and a count the file cannot hold is an error before any
// allocation.  Traces are analysis artifacts -- the simulator itself
// remains generator-driven (wrong-path synthesis needs the static CFG,
// which a flat trace cannot provide).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.hpp"

namespace msim::trace {

/// Writes `instructions` to `path`.  Throws std::runtime_error on I/O
/// failure.
void write_trace(const std::string& path, std::span<const isa::DynInst> instructions);

/// Reads a trace written by write_trace.  Throws std::runtime_error on I/O
/// failure, format mismatch or a corrupt record, naming the file.
[[nodiscard]] std::vector<isa::DynInst> read_trace(const std::string& path);

/// Summary statistics of a recorded trace (the `trace_tool` example prints
/// these; they are also handy in tests).
struct TraceSummary {
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t with_two_sources = 0;
  std::uint64_t unique_pcs = 0;
  double mean_block_length = 0.0;  ///< instructions per branch
};

[[nodiscard]] TraceSummary summarize_trace(std::span<const isa::DynInst> instructions);

}  // namespace msim::trace
