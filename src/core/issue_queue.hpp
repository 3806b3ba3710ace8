// Issue queue timing model with a configurable mix of tag comparators per
// entry.
//
// The traditional design gives every entry two comparators; the 2OP_BLOCK
// family gives every entry one (halving the CAM match hardware); the
// tag-elimination design of Ernst & Austin (ISCA 2002), which the paper's
// related work builds on, statically partitions the queue into groups of
// entries with zero, one and two comparators.  This model supports all of
// them: entries are grouped by comparator count, and a dispatching
// instruction takes the *smallest adequate* free entry for its number of
// non-ready sources (exactly the paper's "appropriate IQ entry" notion in
// its Dispatchable Instruction definition).
//
// The model also accounts CAM activity: every tag broadcast drives every
// comparator of every occupied entry, which is precisely the wakeup power
// and delay cost the reduced-tag designs attack.
//
// Simulation-speed architecture (docs/PERFORMANCE.md): the *model* above is
// a CAM scan, but the *implementation* is event-driven so host cost scales
// with wakeup events, not queue capacity.  Each physical register carries a
// wakeup list of waiting (slot, generation) nodes; a broadcast drains one
// list instead of scanning every entry, and the per-broadcast CAM energy is
// charged from an incrementally maintained live-comparator sum.  Entries
// whose last source arrives join an explicit ready set, so select reads
// only ready instructions.  Slot reuse is made safe by per-slot generation
// counters: nodes left behind by an issued or squashed occupant are lazily
// discarded when their generation no longer matches.  All of this is
// observationally bit-identical to the scan (ready order is by unique age
// stamp; statistics are order-independent sums) — tests/test_perf_paths.cpp
// holds the implementation to that contract against a reference scan model.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vector.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/sched_types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::core {

/// How many IQ entries carry 0, 1 and 2 tag comparators.
struct IqLayout {
  std::array<std::uint32_t, isa::kMaxSources + 1> entries_by_comparators{};

  [[nodiscard]] std::uint32_t total() const noexcept {
    std::uint32_t sum = 0;
    for (const std::uint32_t n : entries_by_comparators) sum += n;
    return sum;
  }
  /// Total comparators in the queue (the CAM hardware cost).
  [[nodiscard]] std::uint32_t comparators() const noexcept {
    std::uint32_t sum = 0;
    for (unsigned c = 0; c <= isa::kMaxSources; ++c) {
      sum += c * entries_by_comparators[c];
    }
    return sum;
  }

  /// All `capacity` entries have `comparators` comparators.
  static IqLayout uniform(std::uint32_t capacity, std::uint8_t comparators) {
    IqLayout layout;
    layout.entries_by_comparators.at(comparators) = capacity;
    return layout;
  }
  /// Ernst & Austin-style static partition: by default 1/4 of the entries
  /// have no comparators, 1/2 have one, 1/4 have two.
  static IqLayout tag_eliminated(std::uint32_t capacity) {
    IqLayout layout;
    layout.entries_by_comparators[0] = capacity / 4;
    layout.entries_by_comparators[2] = capacity / 4;
    layout.entries_by_comparators[1] =
        capacity - layout.entries_by_comparators[0] - layout.entries_by_comparators[2];
    return layout;
  }
};

struct IqStats {
  std::uint64_t dispatched = 0;
  std::uint64_t issued = 0;
  std::uint64_t broadcasts = 0;          ///< result tags driven onto the buses
  std::uint64_t wakeups = 0;             ///< tag matches that cleared a source
  std::uint64_t comparator_ops = 0;      ///< comparators fired across all broadcasts
  std::uint64_t occupancy_integral = 0;  ///< sum over cycles of occupancy
  std::uint64_t occupancy_samples = 0;
  Histogram residency{64, 4.0};          ///< dispatch->issue cycles

  [[nodiscard]] double mean_occupancy() const noexcept {
    return occupancy_samples ? static_cast<double>(occupancy_integral) /
                                   static_cast<double>(occupancy_samples)
                             : 0.0;
  }
  [[nodiscard]] double mean_residency() const noexcept {
    return residency.approximate_mean();
  }
};

/// IqStats's one field list, shared by checkpoints and sweep journals.
void io_iq_stats(persist::Archive& ar, IqStats& s);

class IssueQueue {
 public:
  explicit IssueQueue(const IqLayout& layout);
  /// Convenience: uniform layout (2 = traditional, 1 = 2OP_BLOCK family).
  IssueQueue(std::uint32_t capacity, std::uint8_t comparators_per_entry)
      : IssueQueue(IqLayout::uniform(capacity, comparators_per_entry)) {}

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return live_; }
  [[nodiscard]] bool full() const noexcept { return live_ == capacity_; }
  [[nodiscard]] std::uint32_t free_entries() const noexcept { return capacity_ - live_; }
  /// Entries currently held by thread `tid` (feeds the ICOUNT fetch policy).
  [[nodiscard]] std::uint32_t size_for(ThreadId tid) const { return per_thread_.at(tid); }
  [[nodiscard]] const IqLayout& layout() const noexcept { return layout_; }

  /// Largest comparator count of any entry (2 for traditional/tag-elim,
  /// 1 for the 2OP_BLOCK family): the NDI threshold.
  [[nodiscard]] std::uint8_t max_comparators() const noexcept { return max_cmp_; }

  /// True when a free entry with at least `non_ready` comparators exists --
  /// the "appropriate IQ entry" condition of the paper's DI definition.
  [[nodiscard]] bool has_entry_for(unsigned non_ready) const noexcept;

  /// Inserts a dispatched instruction whose still-unready source tags are
  /// `waiting` (distinct tags).  Picks the smallest adequate free entry;
  /// has_entry_for(waiting.size()) must be true.  Returns the slot index.
  std::uint32_t dispatch(const SchedInst& inst, std::span<const PhysReg> waiting,
                         Cycle now);

  /// Tag broadcast: wakes every entry waiting on `tag` and accounts the
  /// CAM activity of the modeled full-queue comparator scan.
  void broadcast(PhysReg tag);

  /// Appends the slots of all ready (fully woken) entries, ordered oldest
  /// dispatch first, to `out`.  Idempotent within a cycle.
  void collect_ready(std::vector<std::uint32_t>& out) const;

  [[nodiscard]] const SchedInst& at(std::uint32_t slot) const;
  /// True when the entry at `slot` has no outstanding source tags.
  [[nodiscard]] bool ready(std::uint32_t slot) const;

  /// Removes an issued instruction and records its residency.
  void issue(std::uint32_t slot, Cycle now);

  /// Removes every entry of `tid` younger than `after_seq` (partial squash,
  /// used by the FLUSH fetch policy).  Residency is not recorded.
  void squash_younger(ThreadId tid, SeqNum after_seq);

  /// Squashes every entry (watchdog flush).  Residency is not recorded.
  void clear() noexcept;

  /// Accounts one cycle of occupancy statistics; call once per cycle.
  void tick_stats() noexcept;

  [[nodiscard]] const IqStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = IqStats{}; }

  /// Checkpoint support: the SoA entry arrays, wakeup lists, ready set,
  /// free lists, generation counters and statistics all round-trip, so a
  /// restored queue replays the exact same wakeup and select behaviour.
  void state_io(persist::Archive& ar);

 private:
  /// A consumer parked on a physical register's wakeup list.  `gen` pins
  /// the slot occupancy the node was created for: if the slot has been
  /// issued, squashed or reused since, the generations differ and the node
  /// is dead weight to be skipped.
  struct WaitNode {
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// A fully woken entry awaiting select.  Carries its age stamp so the
  /// ready set can be ordered oldest-first without touching the entries.
  struct ReadyNode {
    std::uint64_t age_stamp;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  void release_slot(std::uint32_t slot);
  void mark_ready(std::uint32_t slot) noexcept;

  IqLayout layout_;
  std::uint32_t capacity_;
  std::uint8_t max_cmp_ = 0;
  std::uint32_t live_ = 0;
  /// Sum of comparators over occupied entries: the CAM energy one
  /// broadcast costs (kept incrementally; see broadcast()).
  std::uint32_t live_cmp_ = 0;
  std::uint64_t next_stamp_ = 0;

  // Entry state, structure-of-arrays: the hot paths (wakeup, ready
  // collection) each touch exactly one narrow array instead of striding
  // over fat Entry records.
  std::vector<SchedInst> inst_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> comparators_;  ///< fixed per slot by the layout
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint32_t> gen_;         ///< bumped on every release
  std::vector<Cycle> dispatched_at_;
  std::vector<std::uint64_t> age_stamp_;   ///< global dispatch order

  /// One wakeup list per physical register, grown lazily to the largest
  /// tag ever parked on.  Lists are nearly always tiny, so they live in
  /// SmallVec inline storage (no per-tag heap block) and keep any spilled
  /// capacity across drains.
  std::vector<SmallVec<WaitNode, 4>> waiters_;
  /// Entries with pending == 0, possibly including stale nodes for slots
  /// released since; compacted in place by collect_ready.
  mutable std::vector<ReadyNode> ready_set_;

  /// One free list per comparator class (LIFO, seeded in ascending slot
  /// order; rebuilt the same way by clear()).
  std::array<std::vector<std::uint32_t>, isa::kMaxSources + 1> free_by_cmp_;
  std::array<std::uint32_t, kMaxThreads> per_thread_{};
  IqStats stats_;
};

}  // namespace msim::core
