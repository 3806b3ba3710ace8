#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "common/archive.hpp"
#include "isa/instruction_io.hpp"

namespace msim::trace {
namespace {

constexpr char kMagic[8] = {'M', 'S', 'I', 'M', 'T', 'R', 'C', '2'};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": '" + path + "'");
}

}  // namespace

void write_trace(const std::string& path,
                 std::span<const isa::DynInst> instructions) {
  persist::Archive ar = persist::Archive::saver();
  std::uint64_t count = instructions.size();
  ar.io(count);
  for (isa::DynInst inst : instructions) isa::io_dyn_inst(ar, inst);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open trace for writing", path);
  out.write(kMagic, sizeof kMagic);
  out.write(reinterpret_cast<const char*>(ar.bytes().data()),
            static_cast<std::streamsize>(ar.bytes().size()));
  out.flush();
  if (!out) fail("trace write failed", path);
}

std::vector<isa::DynInst> read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open trace for reading", path);
  char magic[sizeof kMagic];
  if (!in.read(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    fail("not an msim trace (bad magic)", path);
  }
  std::vector<std::uint8_t> body{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  std::vector<isa::DynInst> out;
  try {
    // Archive bounds the declared count by the bytes present, so a corrupt
    // count cannot drive the allocation.
    persist::Archive ar = persist::Archive::loader(std::move(body));
    ar.io_sequence(out, isa::io_dyn_inst);
    ar.expect_end();
  } catch (const persist::PersistError& e) {
    fail(std::string("corrupt trace (") + e.what() + ")", path);
  }
  for (const isa::DynInst& inst : out) {
    if (static_cast<unsigned>(inst.op) >= isa::kOpClassCount) {
      fail("corrupt trace record (bad op)", path);
    }
  }
  return out;
}

TraceSummary summarize_trace(std::span<const isa::DynInst> instructions) {
  TraceSummary s;
  s.instructions = instructions.size();
  std::set<Addr> pcs;
  for (const isa::DynInst& inst : instructions) {
    pcs.insert(inst.pc);
    if (inst.is_branch()) {
      ++s.branches;
      if (inst.taken) ++s.taken_branches;
    }
    if (inst.is_load()) ++s.loads;
    if (inst.is_store()) ++s.stores;
    if (inst.source_count() == 2) ++s.with_two_sources;
  }
  s.unique_pcs = pcs.size();
  s.mean_block_length =
      s.branches ? static_cast<double>(s.instructions) / static_cast<double>(s.branches)
                 : static_cast<double>(s.instructions);
  return s;
}

}  // namespace msim::trace
