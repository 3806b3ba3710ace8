#include "smt/rename.hpp"

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::smt {

RenameUnit::RenameUnit(unsigned thread_count, unsigned int_phys, unsigned fp_phys)
    : thread_count_(thread_count), int_phys_(int_phys), fp_phys_(fp_phys) {
  MSIM_CHECK(thread_count_ >= 1 && thread_count_ <= kMaxThreads);
  // Every thread needs a committed mapping per architectural register, plus
  // at least one spare for renaming to make progress.
  MSIM_CHECK(int_phys_ > thread_count_ * isa::kIntArchRegs);
  MSIM_CHECK(fp_phys_ > thread_count_ * isa::kFpArchRegs);

  ready_.assign(int_phys_ + fp_phys_, 0);
  map_.assign(thread_count_, std::vector<PhysReg>(isa::kArchRegCount, kNoPhysReg));
  committed_map_ = map_;

  // Hand out initial mappings: integer physical registers are [0, int_phys),
  // floating-point are [int_phys, int_phys + fp_phys).
  PhysReg next_int = 0;
  PhysReg next_fp = static_cast<PhysReg>(int_phys_);
  for (unsigned t = 0; t < thread_count_; ++t) {
    for (ArchReg r = 0; r < isa::kArchRegCount; ++r) {
      const PhysReg p = isa::is_fp_arch_reg(r) ? next_fp++ : next_int++;
      map_[t][r] = p;
      committed_map_[t][r] = p;
      ready_[p] = 1;  // architectural state is available
    }
  }
  for (PhysReg p = next_int; p < int_phys_; ++p) free_int_.push_back(p);
  for (PhysReg p = next_fp; p < int_phys_ + fp_phys_; ++p) free_fp_.push_back(p);
}

std::vector<PhysReg>& RenameUnit::free_list_for(ArchReg arch) {
  return isa::is_fp_arch_reg(arch) ? free_fp_ : free_int_;
}

bool RenameUnit::can_allocate(ArchReg dest_arch) const {
  if (dest_arch == kNoArchReg) return true;
  return isa::is_fp_arch_reg(dest_arch) ? !free_fp_.empty() : !free_int_.empty();
}

RenameResult RenameUnit::rename(ThreadId tid, const isa::DynInst& inst) {
  MSIM_CHECK(tid < thread_count_);
  RenameResult out;
  auto& map = map_[tid];
  for (unsigned i = 0; i < isa::kMaxSources; ++i) {
    const ArchReg src = inst.src[i];
    if (src == kNoArchReg) continue;
    MSIM_CHECK(src < isa::kArchRegCount);
    out.src[i] = map[src];
  }
  if (inst.dest != kNoArchReg) {
    MSIM_CHECK(inst.dest < isa::kArchRegCount);
    auto& free_list = free_list_for(inst.dest);
    MSIM_CHECK(!free_list.empty());
    const PhysReg fresh = free_list.back();
    free_list.pop_back();
    out.prev_dest = map[inst.dest];
    out.dest = fresh;
    map[inst.dest] = fresh;
    ready_[fresh] = 0;
  }
  return out;
}

void RenameUnit::commit(ThreadId tid, ArchReg dest_arch, PhysReg dest,
                        PhysReg prev_dest) {
  MSIM_CHECK(tid < thread_count_);
  if (dest_arch == kNoArchReg) return;
  MSIM_CHECK(dest != kNoPhysReg && prev_dest != kNoPhysReg);
  committed_map_[tid][dest_arch] = dest;
  free_list_for(dest_arch).push_back(prev_dest);
}

void RenameUnit::flush_thread(ThreadId tid, const std::vector<PhysReg>& squashed_dests) {
  MSIM_CHECK(tid < thread_count_);
  map_[tid] = committed_map_[tid];
  for (const PhysReg p : squashed_dests) {
    MSIM_CHECK(p != kNoPhysReg);
    if (p < int_phys_) {
      free_int_.push_back(p);
    } else {
      free_fp_.push_back(p);
    }
  }
}

void RenameUnit::rewind_mapping(ThreadId tid, ArchReg arch, PhysReg current,
                                PhysReg prev) {
  MSIM_CHECK(tid < thread_count_ && arch < isa::kArchRegCount);
  MSIM_CHECK(current != kNoPhysReg && prev != kNoPhysReg);
  auto& map = map_[tid];
  MSIM_CHECK(map[arch] == current);
  map[arch] = prev;
  if (current < int_phys_) {
    free_int_.push_back(current);
  } else {
    free_fp_.push_back(current);
  }
}

PhysReg RenameUnit::committed_mapping(ThreadId tid, ArchReg arch) const {
  MSIM_CHECK(tid < thread_count_ && arch < isa::kArchRegCount);
  return committed_map_[tid][arch];
}

void RenameUnit::state_io(persist::Archive& ar) {
  ar.section("rename-unit");
  for (auto* table : {&map_, &committed_map_}) {
    for (std::vector<PhysReg>& per_thread : *table) ar.io(per_thread);
  }
  ar.io(free_int_);
  ar.io(free_fp_);
  ar.io(ready_);
}

}  // namespace msim::smt
