#include "core/issue_queue.hpp"

#include <algorithm>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "core/state_io.hpp"

namespace msim::core {

IssueQueue::IssueQueue(const IqLayout& layout)
    : layout_(layout), capacity_(layout.total()) {
  MSIM_CHECK(capacity_ > 0);
  inst_.resize(capacity_);
  pending_.resize(capacity_, 0);
  comparators_.resize(capacity_, 0);
  valid_.resize(capacity_, 0);
  gen_.resize(capacity_, 0);
  dispatched_at_.resize(capacity_, 0);
  age_stamp_.resize(capacity_, 0);
  ready_set_.reserve(capacity_);
  // Lay entries out class-major and seed the per-class free lists.
  std::uint32_t slot = 0;
  for (unsigned cmp = 0; cmp <= isa::kMaxSources; ++cmp) {
    const std::uint32_t count = layout_.entries_by_comparators[cmp];
    if (count > 0) max_cmp_ = static_cast<std::uint8_t>(cmp);
    free_by_cmp_[cmp].reserve(count);
    for (std::uint32_t i = 0; i < count; ++i, ++slot) {
      comparators_[slot] = static_cast<std::uint8_t>(cmp);
      free_by_cmp_[cmp].push_back(slot);
    }
  }
  MSIM_CHECK(max_cmp_ >= 1);  // a queue of only 0-comparator entries is unusable
}

bool IssueQueue::has_entry_for(unsigned non_ready) const noexcept {
  for (unsigned cmp = non_ready; cmp <= isa::kMaxSources; ++cmp) {
    if (!free_by_cmp_[cmp].empty()) return true;
  }
  return false;
}

std::uint32_t IssueQueue::dispatch(const SchedInst& inst,
                                   std::span<const PhysReg> waiting, Cycle now) {
  MSIM_CHECK(waiting.size() <= isa::kMaxSources);
  // Smallest adequate entry class first, to save the big entries for the
  // instructions that need them.
  std::uint32_t slot = capacity_;
  for (unsigned cmp = static_cast<unsigned>(waiting.size());
       cmp <= isa::kMaxSources; ++cmp) {
    if (!free_by_cmp_[cmp].empty()) {
      slot = free_by_cmp_[cmp].back();
      free_by_cmp_[cmp].pop_back();
      break;
    }
  }
  MSIM_CHECK(slot < capacity_);  // caller must check has_entry_for first

  inst_[slot] = inst;
  pending_[slot] = static_cast<std::uint8_t>(waiting.size());
  MSIM_CHECK(pending_[slot] <= comparators_[slot]);
  dispatched_at_[slot] = now;
  age_stamp_[slot] = next_stamp_++;
  valid_[slot] = 1;
  const std::uint32_t gen = gen_[slot];
  for (const PhysReg tag : waiting) {
    MSIM_CHECK(tag != kNoPhysReg);
    if (tag >= waiters_.size()) waiters_.resize(tag + 1u);
    waiters_[tag].push_back(WaitNode{slot, gen});
  }
  if (waiting.empty()) mark_ready(slot);
  ++live_;
  live_cmp_ += comparators_[slot];
  ++per_thread_.at(inst.tid);
  ++stats_.dispatched;
  return slot;
}

void IssueQueue::broadcast(PhysReg tag) {
  ++stats_.broadcasts;
  // Every comparator of an occupied entry observes the broadcast; that is
  // the CAM energy the reduced-tag designs halve.  The sum over occupied
  // entries is maintained incrementally instead of being re-derived by a
  // queue scan.
  stats_.comparator_ops += live_cmp_;
  if (tag >= waiters_.size()) return;
  SmallVec<WaitNode, 4>& list = waiters_[tag];
  for (const WaitNode node : list) {
    // A generation mismatch means the occupant this node was parked for has
    // issued or been squashed since (and the slot possibly reused): dead
    // node, skip.  A match implies the source is still outstanding, because
    // the only event that clears it is this very broadcast.
    if (gen_[node.slot] != node.gen) continue;
    MSIM_CHECK(valid_[node.slot] && pending_[node.slot] > 0);
    ++stats_.wakeups;
    if (--pending_[node.slot] == 0) mark_ready(node.slot);
  }
  list.clear();
}

void IssueQueue::mark_ready(std::uint32_t slot) noexcept {
  ready_set_.push_back(ReadyNode{age_stamp_[slot], slot, gen_[slot]});
}

void IssueQueue::collect_ready(std::vector<std::uint32_t>& out) const {
  // Compact away nodes whose entry has left the queue since going ready
  // (issued last cycle, or squashed), then order survivors oldest first.
  // Age stamps are unique, so this order is exactly what a full-queue scan
  // sorted by age would produce.
  std::size_t keep = 0;
  for (const ReadyNode node : ready_set_) {
    if (gen_[node.slot] == node.gen) ready_set_[keep++] = node;
  }
  ready_set_.resize(keep);
  // Insertion sort: compaction preserves order, so only the nodes appended
  // since the last call are out of place and the array is nearly sorted.
  // Age stamps are unique, making any correct sort produce the same order.
  for (std::size_t i = 1; i < keep; ++i) {
    const ReadyNode node = ready_set_[i];
    std::size_t j = i;
    for (; j > 0 && ready_set_[j - 1].age_stamp > node.age_stamp; --j) {
      ready_set_[j] = ready_set_[j - 1];
    }
    ready_set_[j] = node;
  }
  out.reserve(out.size() + keep);
  for (const ReadyNode node : ready_set_) out.push_back(node.slot);
}

const SchedInst& IssueQueue::at(std::uint32_t slot) const {
  MSIM_CHECK(slot < capacity_ && valid_[slot]);
  return inst_[slot];
}

bool IssueQueue::ready(std::uint32_t slot) const {
  MSIM_CHECK(slot < capacity_ && valid_[slot]);
  return pending_[slot] == 0;
}

void IssueQueue::release_slot(std::uint32_t slot) {
  valid_[slot] = 0;
  // Invalidate every wakeup-list and ready-set node parked for this
  // occupancy; they are skipped lazily wherever encountered.
  ++gen_[slot];
  free_by_cmp_[comparators_[slot]].push_back(slot);
  MSIM_CHECK(live_ > 0);
  --live_;
  live_cmp_ -= comparators_[slot];
  MSIM_CHECK(per_thread_.at(inst_[slot].tid) > 0);
  --per_thread_.at(inst_[slot].tid);
}

void IssueQueue::issue(std::uint32_t slot, Cycle now) {
  MSIM_CHECK(slot < capacity_);
  MSIM_CHECK(valid_[slot] && pending_[slot] == 0);
  stats_.residency.add(static_cast<double>(now - dispatched_at_[slot]));
  ++stats_.issued;
  release_slot(slot);
}

void IssueQueue::squash_younger(ThreadId tid, SeqNum after_seq) {
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    if (valid_[i] && inst_[i].tid == tid && inst_[i].seq > after_seq) {
      release_slot(i);
    }
  }
}

void IssueQueue::clear() noexcept {
  for (auto& free_list : free_by_cmp_) free_list.clear();
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    valid_[i] = 0;
    ++gen_[i];
    free_by_cmp_[comparators_[i]].push_back(i);
  }
  ready_set_.clear();
  live_ = 0;
  live_cmp_ = 0;
  per_thread_.fill(0);
}

void IssueQueue::tick_stats() noexcept {
  stats_.occupancy_integral += live_;
  ++stats_.occupancy_samples;
}

void IssueQueue::state_io(persist::Archive& ar) {
  ar.section("issue-queue");
  // Shape (capacity, comparator layout) is construction-time configuration;
  // serialize it for verification so a checkpoint from a differently shaped
  // queue fails loudly.
  std::uint32_t capacity = capacity_;
  ar.io(capacity);
  std::array<std::uint32_t, isa::kMaxSources + 1> by_cmp =
      layout_.entries_by_comparators;
  for (std::uint32_t& n : by_cmp) ar.io(n);
  if (!ar.saving() &&
      (capacity != capacity_ || by_cmp != layout_.entries_by_comparators)) {
    throw persist::PersistError(
        "checkpoint: issue-queue shape mismatch (different iq_entries or "
        "scheduler kind)");
  }
  ar.io(live_);
  ar.io(live_cmp_);
  ar.io(next_stamp_);
  ar.io_sequence(inst_, io_sched_inst);
  ar.io(pending_);
  ar.io(valid_);
  ar.io(gen_);
  ar.io(dispatched_at_);
  ar.io(age_stamp_);
  ar.io_sequence(waiters_, [](persist::Archive& a, SmallVec<WaitNode, 4>& w) {
    a.io_sequence(w, [](persist::Archive& b, WaitNode& node) {
      b.io(node.slot);
      b.io(node.gen);
    });
  });
  ar.io_sequence(ready_set_, [](persist::Archive& a, ReadyNode& r) {
    a.io(r.age_stamp);
    a.io(r.slot);
    a.io(r.gen);
  });
  for (std::vector<std::uint32_t>& fl : free_by_cmp_) ar.io(fl);
  for (std::uint32_t& n : per_thread_) ar.io(n);
  io_iq_stats(ar, stats_);
}

void io_iq_stats(persist::Archive& ar, IqStats& s) {
  ar.io(s.dispatched);
  ar.io(s.issued);
  ar.io(s.broadcasts);
  ar.io(s.wakeups);
  ar.io(s.comparator_ops);
  ar.io(s.occupancy_integral);
  ar.io(s.occupancy_samples);
  s.residency.state_io(ar);
}

}  // namespace msim::core
