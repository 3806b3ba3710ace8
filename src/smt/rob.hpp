// Per-thread reorder buffer (Table 1: 96 entries per thread).
//
// Entries are allocated at rename in program order and released at commit.
// The ROB also serves as the pipeline's central in-flight instruction table:
// the scheduler refers to instructions by (tid, seq) and the pipeline
// resolves that to a RobEntry here.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

struct RobEntry {
  isa::DynInst inst{};
  PhysReg src_phys[isa::kMaxSources] = {kNoPhysReg, kNoPhysReg};
  PhysReg dest_phys = kNoPhysReg;
  PhysReg prev_dest_phys = kNoPhysReg;
  Cycle fetched_at = 0;
  Cycle renamed_at = 0;
  Cycle issued_at = kCycleNever;
  Cycle complete_at = kCycleNever;
  bool issued = false;
  /// This branch sent the front end down the wrong path; fetch resumes one
  /// cycle after it resolves.
  bool mispredicted = false;
  /// Synthesized wrong-path instruction; squashed at branch resolution and
  /// never committed or replayed.
  bool wrong_path = false;

  [[nodiscard]] bool done(Cycle now) const noexcept {
    return issued && complete_at <= now;
  }
};

class ReorderBuffer {
 public:
  // Slots are indexed by seq, so a power-of-two array turns the per-lookup
  // division into a mask.  Any `capacity_` consecutive sequence numbers
  // still map to distinct slots; full() keeps the configured capacity.
  explicit ReorderBuffer(std::uint32_t capacity)
      : capacity_(capacity), mask_(std::bit_ceil(capacity) - 1) {
    MSIM_CHECK(capacity_ > 0);
    slots_.resize(mask_ + std::size_t{1});
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Allocates the entry for `seq`; sequence numbers must be consecutive.
  RobEntry& allocate(SeqNum seq) {
    MSIM_CHECK(!full());
    MSIM_CHECK(empty() || seq == head_seq_ + count_);
    if (empty()) head_seq_ = seq;
    RobEntry& e = slots_[slot_of(seq)];
    e = RobEntry{};
    ++count_;
    return e;
  }

  [[nodiscard]] bool contains(SeqNum seq) const noexcept {
    return count_ > 0 && seq >= head_seq_ && seq < head_seq_ + count_;
  }

  [[nodiscard]] RobEntry& entry(SeqNum seq) {
    MSIM_CHECK(contains(seq));
    return slots_[slot_of(seq)];
  }
  [[nodiscard]] const RobEntry& entry(SeqNum seq) const {
    MSIM_CHECK(contains(seq));
    return slots_[slot_of(seq)];
  }

  [[nodiscard]] SeqNum head_seq() const {
    MSIM_CHECK(!empty());
    return head_seq_;
  }
  [[nodiscard]] RobEntry& head() { return entry(head_seq()); }

  void pop_head() {
    MSIM_CHECK(!empty());
    ++head_seq_;
    --count_;
  }

  /// Visits live entries oldest-first (watchdog flush path).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::uint32_t i = 0; i < count_; ++i) {
      visit(slots_[slot_of(head_seq_ + i)]);
    }
  }

  /// Drops every entry younger than `last_kept` (partial squash for the
  /// FLUSH fetch policy).  `last_kept` must be in the window.
  void truncate_to(SeqNum last_kept) {
    MSIM_CHECK(contains(last_kept));
    count_ = static_cast<std::uint32_t>(last_kept - head_seq_ + 1);
  }

  void clear() noexcept { count_ = 0; }

  /// Checkpoint support (defined in smt/state.cpp): live entries are
  /// serialized oldest-first and restored into their seq-derived slots.
  void state_io(persist::Archive& ar);

 private:
  [[nodiscard]] std::size_t slot_of(SeqNum seq) const noexcept {
    return static_cast<std::size_t>(seq & mask_);
  }

  std::uint32_t capacity_;
  std::uint32_t mask_;  ///< slots_.size() - 1
  std::uint32_t count_ = 0;
  SeqNum head_seq_ = 0;
  std::vector<RobEntry> slots_;
};

}  // namespace msim::smt
