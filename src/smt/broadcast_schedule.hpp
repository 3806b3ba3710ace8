// Calendar queue for pending result-tag broadcasts.
//
// The pipeline schedules every issued instruction's destination tag for
// broadcast at its completion cycle and drains all due tags once per tick.
// A std::map<Cycle, vector> made that an O(log n) tree walk on the issue
// path (the hottest function in the simulator); since completion times are
// bounded by instruction latency plus memory time, a power-of-two ring of
// per-cycle buckets covers virtually every insert in O(1).  The rare tag
// completing beyond the ring horizon (MSHR pile-ups, injected fault
// latency) spills to an ordered map, preserving correctness for any
// latency.
//
// Drain order — ascending cycle, and insertion order within one cycle's
// bucket — matches the map it replaced.  Ring and spill tags for the same
// cycle may interleave differently than pure insertion order, which is
// unobservable: wakeups of distinct tags are independent, and repeated
// set_ready on the same register is idempotent (see docs/PERFORMANCE.md on
// the bit-identity argument).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

class BroadcastSchedule {
 public:
  /// `horizon_hint` sizes the ring; it is rounded up to a power of two.
  /// Completions beyond it still work (via the spill map), just slower.
  explicit BroadcastSchedule(std::uint32_t horizon_hint = 512) {
    std::uint32_t size = 1;
    while (size < horizon_hint) size <<= 1;
    ring_.resize(size);
    mask_ = size - 1;
  }

  /// Schedules `tag` for broadcast at cycle `when`.  `when` must not
  /// precede the most recent drain (the pipeline always schedules at least
  /// one cycle ahead).
  void schedule(Cycle when, PhysReg tag) {
    MSIM_CHECK(when >= base_);
    // While drain_due() walks drain_cycle_'s bucket a same-cycle schedule
    // would append to the vector under iteration; later cycles are safe
    // (within the ring horizon they always map to a different bucket).
    MSIM_CHECK(!draining_ || when > drain_cycle_);
    if (when - base_ <= mask_) {
      ring_[when & mask_].push_back(tag);
    } else {
      spill_[when].push_back(tag);
    }
    ++pending_;
  }

  /// Removes every scheduled broadcast of `tag` at cycle `when` (squash of
  /// an issued-but-incomplete instruction).
  void cancel(Cycle when, PhysReg tag) {
    MSIM_CHECK(!draining_ || when > drain_cycle_);
    // Ring-vs-spill placement was decided against base_ at schedule()
    // time, which may be further in the past: a tag scheduled beyond the
    // ring horizon lives in the spill map even if `when` has since come
    // within horizon of the current base_.  Check both homes.
    std::uint64_t erased = 0;
    if (when >= base_ && when - base_ <= mask_) {
      erased += std::erase(ring_[when & mask_], tag);
    }
    if (const auto it = spill_.find(when); it != spill_.end()) {
      erased += std::erase(it->second, tag);
      if (it->second.empty()) spill_.erase(it);
    }
    MSIM_CHECK(pending_ >= erased);
    pending_ -= erased;
  }

  /// Invokes `fn(tag)` for every broadcast due at or before `now`, in
  /// ascending cycle order, and advances the drain point past `now`.
  template <typename Fn>
  void drain_due(Cycle now, Fn&& fn) {
    if (pending_ == 0) {
      base_ = std::max(base_, now + 1);
      return;
    }
    draining_ = true;
    for (Cycle c = base_; c <= now; ++c) {
      drain_cycle_ = c;
      std::vector<PhysReg>& bucket = ring_[c & mask_];
      for (const PhysReg tag : bucket) {
        fn(tag);
        --pending_;
      }
      bucket.clear();  // keeps capacity for the next lap
      while (!spill_.empty() && spill_.begin()->first <= c) {
        for (const PhysReg tag : spill_.begin()->second) {
          fn(tag);
          --pending_;
        }
        spill_.erase(spill_.begin());
      }
    }
    draining_ = false;
    base_ = now + 1;
  }

  /// Drops every pending broadcast (watchdog flush).
  void clear() noexcept {
    for (auto& bucket : ring_) bucket.clear();
    spill_.clear();
    pending_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

  /// Checkpoint support (defined in smt/state.cpp).  Ring buckets are
  /// serialized by bucket index, not re-derived from cycles: ring-vs-spill
  /// placement was decided against base_ at schedule() time, so re-deriving
  /// it against the restored base_ could move tags between homes and change
  /// cancel() behaviour.
  void state_io(persist::Archive& ar);

 private:
  std::vector<std::vector<PhysReg>> ring_;  ///< bucket per cycle mod ring size
  std::map<Cycle, std::vector<PhysReg>> spill_;
  std::uint32_t mask_ = 0;
  Cycle base_ = 0;      ///< earliest cycle not yet drained
  std::uint64_t pending_ = 0;
  Cycle drain_cycle_ = 0;   ///< cycle whose bucket drain_due() is walking
  bool draining_ = false;
};

}  // namespace msim::smt
