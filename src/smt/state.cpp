// Checkpoint serialization for the header-only smt structures (ROB, LSQ,
// function-unit pools, broadcast calendar queue).  Kept out of the headers
// so the hot-path inline code does not pull in the archive machinery.
#include "common/archive.hpp"
#include "isa/instruction_io.hpp"
#include "smt/broadcast_schedule.hpp"
#include "smt/fu.hpp"
#include "smt/lsq.hpp"
#include "smt/rob.hpp"

namespace msim::smt {

namespace {

void io_rob_entry(persist::Archive& ar, RobEntry& e) {
  isa::io_dyn_inst(ar, e.inst);
  for (PhysReg& s : e.src_phys) ar.io(s);
  ar.io(e.dest_phys);
  ar.io(e.prev_dest_phys);
  ar.io(e.fetched_at);
  ar.io(e.renamed_at);
  ar.io(e.issued_at);
  ar.io(e.complete_at);
  ar.io(e.issued);
  ar.io(e.mispredicted);
  ar.io(e.wrong_path);
}

}  // namespace

void ReorderBuffer::state_io(persist::Archive& ar) {
  ar.section("rob");
  std::uint32_t capacity = capacity_;
  ar.io(capacity);
  if (!ar.saving() && capacity != capacity_) {
    throw persist::PersistError("checkpoint: ROB capacity mismatch");
  }
  ar.io(count_);
  if (!ar.saving() && count_ > capacity_) {
    throw persist::PersistError("checkpoint: ROB holds " + std::to_string(count_) +
                                " entries but its capacity is " +
                                std::to_string(capacity_));
  }
  ar.io(head_seq_);
  // Live window only, oldest first; dead slots are unobservable (allocate
  // resets them) and restore as default entries.
  for (std::uint32_t i = 0; i < count_; ++i) {
    io_rob_entry(ar, slots_[slot_of(head_seq_ + i)]);
  }
}

void LoadStoreQueue::state_io(persist::Archive& ar) {
  ar.section("lsq");
  ar.io_ring(entries_, "LSQ", [](persist::Archive& a, Entry& e) {
    a.io(e.seq);
    a.io(e.addr);
    a.io(e.addr_src);
    a.io(e.data_src);
    a.io(e.is_store);
  });
  if (!ar.saving()) {
    // The store ring is an index over entries_; rebuild it.
    stores_.clear();
    for (const Entry& e : entries_) {
      if (e.is_store) stores_.push_back(e);
    }
  }
  ar.io(stats_.loads_checked);
  ar.io(stats_.forwards);
  ar.io(stats_.blocked_checks);
}

void FuPools::state_io(persist::Archive& ar) {
  ar.section("fu-pools");
  for (std::vector<Cycle>& pool : pools_) {
    // Pool sizes are fixed by the ISA tables; counts round-trip only so a
    // table change between save and load fails loudly.
    std::uint64_t n = pool.size();
    ar.io(n);
    if (!ar.saving() && n != pool.size()) {
      throw persist::PersistError("checkpoint: function-unit pool size mismatch");
    }
    for (Cycle& busy_until : pool) ar.io(busy_until);
  }
  for (std::uint64_t& n : stats_.issues) ar.io(n);
  for (std::uint64_t& n : stats_.structural_rejects) ar.io(n);
}

void BroadcastSchedule::state_io(persist::Archive& ar) {
  ar.section("broadcast-schedule");
  std::uint32_t mask = mask_;
  ar.io(mask);
  if (!ar.saving() && mask != mask_) {
    throw persist::PersistError("checkpoint: broadcast ring size mismatch");
  }
  // Buckets verbatim by index (see header comment on ring-vs-spill homes).
  for (std::vector<PhysReg>& bucket : ring_) ar.io(bucket);
  ar.io_map(spill_, [](persist::Archive& a, std::vector<PhysReg>& tags) {
    a.io(tags);
  });
  ar.io(base_);
  ar.io(pending_);
  // drain_cycle_ / draining_ are live only inside drain_due(), which never
  // spans a checkpoint boundary; serialized anyway for completeness.
  ar.io(drain_cycle_);
  ar.io(draining_);
}

}  // namespace msim::smt
