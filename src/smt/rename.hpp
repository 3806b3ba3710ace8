// Register renaming: per-thread map tables over a shared physical register
// file with per-class free lists and result-ready bits.
//
// Renaming is always in program order within a thread -- that is what makes
// the paper's out-of-order *dispatch* safe (Section 4): dependencies are
// fixed at rename time, so dispatch order cannot change them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

struct RenameResult {
  PhysReg src[isa::kMaxSources] = {kNoPhysReg, kNoPhysReg};
  PhysReg dest = kNoPhysReg;
  /// The physical register `dest`'s architectural register mapped to before
  /// this instruction; freed when this instruction commits.
  PhysReg prev_dest = kNoPhysReg;
};

class RenameUnit {
 public:
  RenameUnit(unsigned thread_count, unsigned int_phys, unsigned fp_phys);

  /// True when a free physical register of the class needed by `dest_arch`
  /// is available (always true when the instruction has no destination).
  [[nodiscard]] bool can_allocate(ArchReg dest_arch) const;

  /// Renames one instruction of thread `tid` in program order.
  RenameResult rename(ThreadId tid, const isa::DynInst& inst);

  /// Commit-time bookkeeping: promotes the mapping into the committed map
  /// table and recycles the previous mapping.
  void commit(ThreadId tid, ArchReg dest_arch, PhysReg dest, PhysReg prev_dest);

  /// Watchdog-flush recovery: restores the thread's speculative map table
  /// from the committed one and recycles the destination registers of all
  /// squashed instructions (passed by the caller, oldest first).
  void flush_thread(ThreadId tid, const std::vector<PhysReg>& squashed_dests);

  /// Partial squash (FLUSH fetch policy): undoes ONE rename of thread
  /// `tid`.  Must be applied youngest-first along the squashed suffix;
  /// `current` is the squashed instruction's destination mapping (recycled)
  /// and `prev` the mapping it displaced.
  void rewind_mapping(ThreadId tid, ArchReg arch, PhysReg current, PhysReg prev);

  // Hot path (queried per source per dispatch candidate per cycle):
  // physical register indices are produced by this unit, so plain indexing
  // is safe.
  [[nodiscard]] bool is_ready(PhysReg reg) const noexcept { return ready_[reg] != 0; }
  void set_ready(PhysReg reg) noexcept { ready_[reg] = 1; }

  [[nodiscard]] unsigned free_int_regs() const noexcept {
    return static_cast<unsigned>(free_int_.size());
  }
  [[nodiscard]] unsigned free_fp_regs() const noexcept {
    return static_cast<unsigned>(free_fp_.size());
  }
  [[nodiscard]] PhysReg committed_mapping(ThreadId tid, ArchReg arch) const;

  /// Checkpoint support: map tables, free lists (order matters -- they are
  /// LIFO) and ready bits all round-trip.
  void state_io(persist::Archive& ar);

 private:
  [[nodiscard]] std::vector<PhysReg>& free_list_for(ArchReg arch);

  unsigned thread_count_;
  unsigned int_phys_;
  unsigned fp_phys_;
  /// map_[tid][arch] -> phys (speculative); committed_map_ trails commits.
  std::vector<std::vector<PhysReg>> map_;
  std::vector<std::vector<PhysReg>> committed_map_;
  std::vector<PhysReg> free_int_;
  std::vector<PhysReg> free_fp_;
  std::vector<std::uint8_t> ready_;
};

}  // namespace msim::smt
