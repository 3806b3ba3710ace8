// Guard rails for the event-driven scheduler hot paths (docs/PERFORMANCE.md).
//
// Five layers, from micro to macro:
//   1. Randomized equivalence: the wakeup-list IssueQueue must behave
//      exactly like a brute-force reference scan model under randomized
//      dependency graphs (dispatch/broadcast/issue/squash interleavings).
//   2. Free-list exhaustion & reuse: recycled slots must not be woken by
//      stale wakeup-list nodes left behind by their previous occupant.
//   3. BroadcastSchedule equivalence: the calendar queue (ring + spill
//      map) must drain the same per-cycle tag multisets as the std::map
//      it replaced, across schedule/cancel/drain interleavings including
//      beyond-horizon spills and cancels after the drain point advances.
//   4. Golden bit-identity: committed-instruction digests of full 2T/4T
//      pipeline runs are pinned.  Any optimization that changes a digest
//      changed machine behavior and violated the bit-identity contract.
//   5. The same pins for the paths layer 4 misses (FLUSH squash, wrong
//      path, watchdog replay, filtered dispatch, one thread), plus the
//      hashes of a mid-run checkpoint, two stats JSON documents and a
//      diagnostic bundle.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/issue_queue.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "smt/broadcast_schedule.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace msim::core {
namespace {

// ---- 1. randomized equivalence against a reference scan model --------------

/// Executable specification: the pre-wakeup-list IssueQueue algorithm,
/// verbatim.  Free entries come from per-class LIFO lists (identical to the
/// production queue, so both pick the same slot); wakeup is a full-queue
/// CAM scan and ready collection a full-queue sweep.  Obviously correct,
/// deliberately slow.
class ReferenceScanIq {
 public:
  explicit ReferenceScanIq(const IqLayout& layout) {
    std::uint32_t slot = 0;
    for (unsigned cmp = 0; cmp <= isa::kMaxSources; ++cmp) {
      for (std::uint32_t i = 0; i < layout.entries_by_comparators[cmp];
           ++i, ++slot) {
        Entry e;
        e.comparators = static_cast<std::uint8_t>(cmp);
        entries_.push_back(e);
        free_by_cmp_[cmp].push_back(slot);
      }
    }
  }

  [[nodiscard]] bool has_entry_for(unsigned non_ready) const {
    for (unsigned cmp = non_ready; cmp <= isa::kMaxSources; ++cmp) {
      if (!free_by_cmp_[cmp].empty()) return true;
    }
    return false;
  }

  std::uint32_t dispatch(const SchedInst& inst, std::span<const PhysReg> waiting,
                         Cycle now) {
    std::uint32_t slot = static_cast<std::uint32_t>(entries_.size());
    for (unsigned cmp = static_cast<unsigned>(waiting.size());
         cmp <= isa::kMaxSources; ++cmp) {
      if (!free_by_cmp_[cmp].empty()) {
        slot = free_by_cmp_[cmp].back();
        free_by_cmp_[cmp].pop_back();
        break;
      }
    }
    EXPECT_LT(slot, entries_.size());
    Entry& e = entries_[slot];
    e.inst = inst;
    e.pending = 0;
    e.waiting[0] = e.waiting[1] = kNoPhysReg;
    for (std::size_t i = 0; i < waiting.size(); ++i) {
      e.waiting[i] = waiting[i];
      ++e.pending;
    }
    e.dispatched_at = now;
    e.age_stamp = next_stamp_++;
    e.valid = true;
    ++live_;
    ++ref_stats_.dispatched;
    return slot;
  }

  void broadcast(PhysReg tag) {
    ++ref_stats_.broadcasts;
    if (live_ == 0) return;
    for (Entry& e : entries_) {
      if (!e.valid) continue;
      ref_stats_.comparator_ops += e.comparators;
      if (e.pending == 0) continue;
      for (PhysReg& w : e.waiting) {
        if (w == tag) {
          w = kNoPhysReg;
          --e.pending;
          ++ref_stats_.wakeups;
        }
      }
    }
  }

  void collect_ready(std::vector<std::uint32_t>& out) const {
    const std::size_t first = out.size();
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].valid && entries_[i].pending == 0) out.push_back(i);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return entries_[a].age_stamp < entries_[b].age_stamp;
              });
  }

  void issue(std::uint32_t slot) {
    release(slot);
    ++ref_stats_.issued;
  }

  void squash_younger(ThreadId tid, SeqNum after_seq) {
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.valid && e.inst.tid == tid && e.inst.seq > after_seq) release(i);
    }
  }

  [[nodiscard]] const SchedInst& at(std::uint32_t slot) const {
    return entries_[slot].inst;
  }

  struct RefStats {
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t comparator_ops = 0;
  };
  [[nodiscard]] const RefStats& stats() const { return ref_stats_; }

 private:
  struct Entry {
    SchedInst inst{};
    PhysReg waiting[isa::kMaxSources] = {kNoPhysReg, kNoPhysReg};
    std::uint8_t pending = 0;
    std::uint8_t comparators = 0;
    Cycle dispatched_at = 0;
    std::uint64_t age_stamp = 0;
    bool valid = false;
  };

  void release(std::uint32_t slot) {
    Entry& e = entries_[slot];
    e.valid = false;
    free_by_cmp_[e.comparators].push_back(slot);
    --live_;
  }

  std::vector<Entry> entries_;
  std::array<std::vector<std::uint32_t>, isa::kMaxSources + 1> free_by_cmp_;
  std::uint32_t live_ = 0;
  std::uint64_t next_stamp_ = 0;
  RefStats ref_stats_;
};

/// Drives the production IssueQueue and the reference model with the same
/// randomized stream of dispatch / broadcast / issue / squash events and
/// asserts identical observable behavior after every step.
void run_equivalence(std::uint64_t seed, const IqLayout& layout,
                     unsigned tag_space, unsigned steps) {
  IssueQueue iq(layout);
  ReferenceScanIq ref(layout);
  Rng rng(seed);

  SeqNum next_seq[4] = {1, 1, 1, 1};
  Cycle now = 0;
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  /// Tags some dispatched instruction is (or was) waiting on; broadcasting
  /// one models its producer completing.
  std::vector<PhysReg> outstanding;

  for (unsigned step = 0; step < steps; ++step) {
    ++now;
    const double roll = rng.next_double();
    if (roll < 0.45) {
      // Dispatch with 0-2 distinct waiting tags, when an entry exists.
      const auto tid = static_cast<ThreadId>(rng.next_u64() % 4);
      PhysReg waiting[isa::kMaxSources];
      std::size_t n = rng.next_u64() % (isa::kMaxSources + 1);
      const unsigned max_cmp = iq.max_comparators();
      if (n > max_cmp) n = max_cmp;
      if (n >= 1) waiting[0] = static_cast<PhysReg>(rng.next_u64() % tag_space);
      if (n == 2) {
        waiting[1] = static_cast<PhysReg>(rng.next_u64() % tag_space);
        if (waiting[1] == waiting[0]) n = 1;
      }
      ASSERT_EQ(iq.has_entry_for(static_cast<unsigned>(n)),
                ref.has_entry_for(static_cast<unsigned>(n)));
      if (!iq.has_entry_for(static_cast<unsigned>(n))) continue;
      SchedInst inst;
      inst.tid = tid;
      inst.seq = next_seq[tid]++;
      const std::uint32_t a = iq.dispatch(inst, {waiting, n}, now);
      const std::uint32_t b = ref.dispatch(inst, {waiting, n}, now);
      ASSERT_EQ(a, b) << "free-entry choice diverged at step " << step;
      for (std::size_t i = 0; i < n; ++i) outstanding.push_back(waiting[i]);
    } else if (roll < 0.75 && !outstanding.empty()) {
      // Broadcast one outstanding tag (a producer completes; every consumer
      // of that tag wakes at once, so drop all its occurrences).
      const std::size_t pick = rng.next_u64() % outstanding.size();
      const PhysReg tag = outstanding[pick];
      std::erase(outstanding, tag);
      iq.broadcast(tag);
      ref.broadcast(tag);
    } else if (roll < 0.9) {
      // Issue up to issue-width ready entries, oldest first.
      got.clear();
      want.clear();
      iq.collect_ready(got);
      ref.collect_ready(want);
      ASSERT_EQ(got, want) << "ready sets diverged at step " << step;
      const std::size_t width = std::min<std::size_t>(got.size(), 4);
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(iq.at(got[i]).seq, ref.at(want[i]).seq);
        ASSERT_EQ(iq.at(got[i]).tid, ref.at(want[i]).tid);
        iq.issue(got[i], now);
        ref.issue(want[i]);
      }
    } else if (roll < 0.95) {
      // Partial squash of one thread (FLUSH fetch policy path).  Both
      // implementations release squashed slots in ascending slot order, so
      // the free lists stay in lockstep.
      const auto tid = static_cast<ThreadId>(rng.next_u64() % 4);
      if (next_seq[tid] <= 1) continue;
      const SeqNum after = rng.next_u64() % next_seq[tid];
      iq.squash_younger(tid, after);
      ref.squash_younger(tid, after);
    }

    got.clear();
    want.clear();
    iq.collect_ready(got);
    ref.collect_ready(want);
    ASSERT_EQ(got, want) << "ready sets diverged after step " << step;
    ASSERT_EQ(iq.stats().wakeups, ref.stats().wakeups) << "step " << step;
    ASSERT_EQ(iq.stats().comparator_ops, ref.stats().comparator_ops)
        << "step " << step;
    ASSERT_EQ(iq.stats().broadcasts, ref.stats().broadcasts);
    ASSERT_EQ(iq.stats().dispatched, ref.stats().dispatched);
    ASSERT_EQ(iq.stats().issued, ref.stats().issued);
  }
}

TEST(WakeupListEquivalence, UniformTwoComparatorQueue) {
  run_equivalence(1, IqLayout::uniform(16, 2), /*tag_space=*/48, /*steps=*/4000);
  run_equivalence(2, IqLayout::uniform(64, 2), /*tag_space=*/160, /*steps=*/4000);
}

TEST(WakeupListEquivalence, UniformOneComparatorQueue) {
  run_equivalence(3, IqLayout::uniform(16, 1), /*tag_space=*/48, /*steps=*/4000);
  run_equivalence(4, IqLayout::uniform(64, 1), /*tag_space=*/160, /*steps=*/4000);
}

TEST(WakeupListEquivalence, TagEliminatedQueue) {
  run_equivalence(5, IqLayout::tag_eliminated(32), /*tag_space=*/96,
                  /*steps=*/4000);
}

TEST(WakeupListEquivalence, TinyQueueHighContention) {
  // A 4-entry queue forces constant exhaustion, reuse and stale-node churn.
  run_equivalence(6, IqLayout::uniform(4, 2), /*tag_space=*/8, /*steps=*/6000);
  run_equivalence(7, IqLayout::uniform(4, 1), /*tag_space=*/6, /*steps=*/6000);
}

// ---- 2. free-list exhaustion and slot reuse --------------------------------

SchedInst make_inst(ThreadId tid, SeqNum seq) {
  SchedInst inst;
  inst.tid = tid;
  inst.seq = seq;
  return inst;
}

TEST(IqFreeList, ExhaustReuseCycle) {
  IssueQueue iq(4, 2);
  std::vector<std::uint32_t> ready;
  // Fill to exhaustion with ready instructions.
  for (SeqNum s = 1; s <= 4; ++s) {
    ASSERT_TRUE(iq.has_entry_for(0));
    iq.dispatch(make_inst(0, s), {}, s);
  }
  EXPECT_TRUE(iq.full());
  EXPECT_FALSE(iq.has_entry_for(0));
  // Drain and refill twice: every slot must be reusable.
  for (int round = 0; round < 2; ++round) {
    ready.clear();
    iq.collect_ready(ready);
    ASSERT_EQ(ready.size(), 4u);
    for (const std::uint32_t slot : ready) iq.issue(slot, 10);
    EXPECT_EQ(iq.size(), 0u);
    for (SeqNum s = 1; s <= 4; ++s) {
      ASSERT_TRUE(iq.has_entry_for(2));
      const PhysReg tags[2] = {static_cast<PhysReg>(s), static_cast<PhysReg>(s + 8)};
      iq.dispatch(make_inst(1, s + 10 * static_cast<SeqNum>(round)), {tags, 2}, 20);
    }
    EXPECT_TRUE(iq.full());
    for (SeqNum s = 1; s <= 4; ++s) {
      iq.broadcast(static_cast<PhysReg>(s));
      iq.broadcast(static_cast<PhysReg>(s + 8));
    }
  }
  EXPECT_EQ(iq.stats().dispatched, 12u);
  EXPECT_EQ(iq.stats().wakeups, 16u);
}

TEST(IqFreeList, StaleWakeupNodeDoesNotWakeReusedSlot) {
  IssueQueue iq(2, 2);
  // A waits on tag 7; squash A before the broadcast.
  const std::uint32_t slot_a =
      iq.dispatch(make_inst(0, 1), std::array<PhysReg, 1>{7}, 1);
  iq.squash_younger(0, 0);
  EXPECT_EQ(iq.size(), 0u);
  // B reuses the slot, also waiting on tag 7; C occupies the other slot
  // waiting on tag 9.  The stale node for A must neither wake B twice nor
  // corrupt the wakeup statistics.
  const std::uint32_t slot_b =
      iq.dispatch(make_inst(1, 1), std::array<PhysReg, 1>{7}, 2);
  EXPECT_EQ(slot_a, slot_b);  // LIFO free list hands the slot straight back
  iq.dispatch(make_inst(1, 2), std::array<PhysReg, 1>{9}, 2);
  iq.broadcast(7);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  EXPECT_TRUE(iq.ready(slot_b));
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], slot_b);
  // Re-broadcasting an already-consumed tag is a no-op for readiness.
  iq.broadcast(7);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  iq.broadcast(9);
  ready.clear();
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 2u);
}

TEST(IqFreeList, ClearForgetsAllWaiters) {
  IssueQueue iq(4, 2);
  iq.dispatch(make_inst(0, 1), std::array<PhysReg, 2>{3, 4}, 1);
  iq.dispatch(make_inst(0, 2), std::array<PhysReg, 1>{3}, 1);
  iq.clear();
  EXPECT_EQ(iq.size(), 0u);
  // Post-clear, a fresh consumer of tag 3 must see exactly one wakeup.
  iq.dispatch(make_inst(1, 1), std::array<PhysReg, 1>{3}, 2);
  iq.broadcast(3);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 1u);
}

// ---- 3. BroadcastSchedule calendar queue vs. ordered-map reference ---------

/// Executable specification: the std::map<Cycle, vector> the calendar
/// queue replaced.  Placement is trivially correct, so any divergence in
/// drained tags or pending counts is a calendar-queue bug.
class ReferenceBroadcastMap {
 public:
  void schedule(Cycle when, PhysReg tag) {
    map_[when].push_back(tag);
    ++pending_;
  }

  void cancel(Cycle when, PhysReg tag) {
    const auto it = map_.find(when);
    if (it == map_.end()) return;
    pending_ -= std::erase(it->second, tag);
    if (it->second.empty()) map_.erase(it);
  }

  template <typename Fn>
  void drain_due(Cycle now, Fn&& fn) {
    while (!map_.empty() && map_.begin()->first <= now) {
      for (const PhysReg tag : map_.begin()->second) {
        fn(tag);
        --pending_;
      }
      map_.erase(map_.begin());
    }
  }

  [[nodiscard]] std::uint64_t pending() const { return pending_; }

 private:
  std::map<Cycle, std::vector<PhysReg>> map_;
  std::uint64_t pending_ = 0;
};

/// Drives BroadcastSchedule and the reference map with an identical
/// randomized stream of schedule (including beyond the ring horizon, so
/// the spill map is exercised), cancel and per-cycle drain events,
/// asserting identical drained multisets per cycle and pending counts.
/// Ring and spill entries for one cycle may drain in a different relative
/// order than pure insertion order (documented as unobservable), hence
/// multiset comparison.
void run_broadcast_equivalence(std::uint64_t seed, std::uint32_t horizon,
                               unsigned steps) {
  smt::BroadcastSchedule bs(horizon);
  ReferenceBroadcastMap ref;
  Rng rng(seed);
  Cycle now = 0;
  std::vector<std::pair<Cycle, PhysReg>> live;  // not yet drained or canceled
  std::vector<PhysReg> got;
  std::vector<PhysReg> want;

  const auto drain_one_cycle = [&](Cycle c) {
    got.clear();
    want.clear();
    bs.drain_due(c, [&](PhysReg t) { got.push_back(t); });
    ref.drain_due(c, [&](PhysReg t) { want.push_back(t); });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "drained multiset diverged at cycle " << c
                         << " (seed " << seed << ")";
    ASSERT_EQ(bs.pending(), ref.pending()) << "cycle " << c;
  };

  for (unsigned step = 0; step < steps; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5) {
      // Mostly near-future completions; every ~8th lands far beyond the
      // ring horizon and must take the spill-map path.
      const Cycle offset = (rng.next_u64() % 8 == 0)
                               ? 1 + horizon + rng.next_u64() % (4 * horizon + 8)
                               : 1 + rng.next_u64() % 6;
      const Cycle when = now + offset;
      const auto tag = static_cast<PhysReg>(rng.next_u64() % 32);
      bs.schedule(when, tag);
      ref.schedule(when, tag);
      live.emplace_back(when, tag);
    } else if (roll < 0.65 && !live.empty()) {
      // Squash a not-yet-due broadcast.  cancel() drops every occurrence
      // of the (cycle, tag) pair in both implementations.
      const auto [when, tag] = live[rng.next_u64() % live.size()];
      bs.cancel(when, tag);
      ref.cancel(when, tag);
      std::erase_if(live, [when, tag](const std::pair<Cycle, PhysReg>& p) {
        return p.first == when && p.second == tag;
      });
    } else {
      // Advance time cycle by cycle so per-cycle multisets are compared.
      const Cycle until = now + 1 + rng.next_u64() % 10;
      for (Cycle c = now + 1; c <= until; ++c) drain_one_cycle(c);
      now = until;
      std::erase_if(live, [now](const std::pair<Cycle, PhysReg>& p) {
        return p.first <= now;
      });
    }
    ASSERT_EQ(bs.pending(), ref.pending()) << "step " << step;
    ASSERT_EQ(bs.empty(), ref.pending() == 0);
  }
  // Flush: everything still pending must drain identically too.
  while (bs.pending() != 0 || ref.pending() != 0) drain_one_cycle(++now);
}

TEST(BroadcastScheduleEquivalence, RandomizedVsMap) {
  run_broadcast_equivalence(1, /*horizon=*/8, /*steps=*/4000);
  run_broadcast_equivalence(2, /*horizon=*/8, /*steps=*/4000);
  run_broadcast_equivalence(3, /*horizon=*/64, /*steps=*/4000);
}

TEST(BroadcastScheduleEquivalence, DegenerateOneBucketRing) {
  // horizon_hint=1 gives a single-bucket ring: all but same-cycle inserts
  // spill, so the spill map and its interaction with cancel dominate.
  run_broadcast_equivalence(4, /*horizon=*/1, /*steps=*/3000);
}

// Regression: a tag scheduled beyond the ring horizon lives in the spill
// map.  Once the drain point advances far enough that `when` falls within
// horizon of the *current* base, cancel() must still find it in the spill
// map — looking only in the (empty) ring bucket would let the squashed
// broadcast fire later against a rewound/reallocated phys reg.
TEST(BroadcastSchedule, CancelFindsSpilledTagAfterBaseAdvances) {
  smt::BroadcastSchedule bs(/*horizon_hint=*/8);
  bs.schedule(100, 7);  // 100 cycles out: beyond the 8-deep ring, spills
  EXPECT_EQ(bs.pending(), 1u);
  unsigned fired = 0;
  bs.drain_due(95, [&](PhysReg) { ++fired; });
  EXPECT_EQ(fired, 0u);
  bs.cancel(100, 7);  // now within ring horizon of base, but stored in spill
  EXPECT_EQ(bs.pending(), 0u);
  bs.drain_due(100, [&](PhysReg) { ++fired; });
  EXPECT_EQ(fired, 0u) << "squashed broadcast must not fire";
  EXPECT_TRUE(bs.empty());
}

TEST(BroadcastSchedule, CancelInRingAndDrainOrder) {
  smt::BroadcastSchedule bs(/*horizon_hint=*/8);
  bs.schedule(2, 10);
  bs.schedule(1, 11);
  bs.schedule(2, 12);
  bs.cancel(2, 10);
  std::vector<PhysReg> fired;
  bs.drain_due(3, [&](PhysReg t) { fired.push_back(t); });
  EXPECT_EQ(fired, (std::vector<PhysReg>{11, 12}));  // ascending cycle order
  EXPECT_TRUE(bs.empty());
}

TEST(BroadcastSchedule, DrainCallbackMayScheduleAheadButNotSameCycle) {
  // The pipeline always schedules completions at least one cycle ahead;
  // schedule() now enforces that contract while a drain is in progress
  // (a same-cycle insert would append to the bucket being walked).
  smt::BroadcastSchedule ok(/*horizon_hint=*/8);
  ok.schedule(3, 1);
  std::vector<PhysReg> fired;
  ok.drain_due(3, [&](PhysReg t) {
    fired.push_back(t);
    if (t == 1) ok.schedule(4, 2);
  });
  ok.drain_due(4, [&](PhysReg t) { fired.push_back(t); });
  EXPECT_EQ(fired, (std::vector<PhysReg>{1, 2}));
  EXPECT_TRUE(ok.empty());

  smt::BroadcastSchedule bad(/*horizon_hint=*/8);
  bad.schedule(5, 1);
  EXPECT_THROW(
      bad.drain_due(5, [&](PhysReg) { bad.schedule(5, 2); }), CheckError);
}

// ---- 4. golden bit-identity digests ----------------------------------------

std::vector<trace::BenchmarkProfile> workload(
    std::initializer_list<const char*> names) {
  std::vector<trace::BenchmarkProfile> out;
  for (const char* n : names) out.push_back(trace::profile_or_throw(n));
  return out;
}

/// FNV-1a over every committed (tid, seq, cycle) triple, in commit order.
class CommitDigest final : public smt::PipelineObserver {
 public:
  void on_commit(ThreadId tid, SeqNum seq, Cycle now) override {
    mix(tid);
    mix(seq);
    mix(now);
  }
  void on_cycle_end(const smt::Pipeline&, Cycle) override {}

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  std::uint64_t digest = 0;
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t iq_wakeups = 0;
  std::uint64_t iq_comparator_ops = 0;
  std::uint64_t dispatched = 0;
};

smt::MachineConfig golden_machine(SchedulerKind kind, unsigned threads) {
  smt::MachineConfig mc;
  mc.thread_count = threads;
  mc.scheduler.kind = kind;
  mc.scheduler.iq_entries = 64;
  return mc;
}

/// Runs `mc` over `names` until some thread commits 30k instructions.
/// With `path_events`, also stores `count_path_events` of the finished
/// pipeline there.
GoldenRun run_machine(
    const smt::MachineConfig& mc, std::initializer_list<const char*> names,
    std::uint64_t seed, std::uint64_t* path_events = nullptr,
    std::uint64_t (*count_path_events)(const smt::Pipeline&) = nullptr) {
  const auto w = workload(names);
  smt::Pipeline pipe(mc, w, seed);
  CommitDigest digest;
  pipe.set_observer(&digest);
  pipe.run(30'000);
  pipe.set_observer(nullptr);
  if (path_events != nullptr) *path_events = count_path_events(pipe);
  GoldenRun g;
  g.digest = digest.value();
  g.cycles = pipe.cycles();
  g.committed = pipe.total_committed();
  g.iq_wakeups = pipe.scheduler().iq().stats().wakeups;
  g.iq_comparator_ops = pipe.scheduler().iq().stats().comparator_ops;
  g.dispatched = pipe.scheduler().dispatch_stats().dispatched;
  return g;
}

GoldenRun run_digest(SchedulerKind kind, std::initializer_list<const char*> names,
                     std::uint64_t seed) {
  return run_machine(golden_machine(kind, static_cast<unsigned>(names.size())), names,
                     seed);
}

void expect_golden(const GoldenRun& got, const GoldenRun& want) {
  EXPECT_EQ(got.digest, want.digest) << "committed-instruction stream changed";
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.iq_wakeups, want.iq_wakeups);
  EXPECT_EQ(got.iq_comparator_ops, want.iq_comparator_ops);
  EXPECT_EQ(got.dispatched, want.dispatched);
}

// The constants below were produced by the pre-optimization (PR-3)
// scheduler and pin the machine's architectural behavior: the event-driven
// hot paths must reproduce them bit for bit.  If a change moves one of
// these on purpose (a modeling change, not an optimization), re-derive the
// constants and say so loudly in the PR; docs/PERFORMANCE.md explains the
// contract.
TEST(GoldenBitIdentity, TwoThreadTraditional) {
  expect_golden(run_digest(SchedulerKind::kTraditional, {"gzip", "equake"}, 1),
                GoldenRun{10830539571080912323ULL, 37241, 46411, 28340, 2082294, 46589});
}

TEST(GoldenBitIdentity, TwoThreadTwoOpBlockOoo) {
  expect_golden(run_digest(SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake"}, 1),
                GoldenRun{12392273267717430596ULL, 37112, 46411, 24695, 936831, 46585});
}

TEST(GoldenBitIdentity, FourThreadTraditional) {
  expect_golden(
      run_digest(SchedulerKind::kTraditional, {"gzip", "equake", "gcc", "mesa"}, 1),
      GoldenRun{15374823743679590000ULL, 33632, 74292, 39443, 5085728, 74521});
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlock) {
  expect_golden(
      run_digest(SchedulerKind::kTwoOpBlock, {"gzip", "equake", "gcc", "mesa"}, 1),
      GoldenRun{6333350359642444287ULL, 33461, 70535, 32252, 1518349, 70658});
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlockOoo) {
  expect_golden(
      run_digest(SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake", "gcc", "mesa"}, 1),
      GoldenRun{17558748911921286022ULL, 33087, 73790, 34823, 2434789, 74016});
}

TEST(GoldenBitIdentity, FourThreadTagElimination) {
  expect_golden(
      run_digest(SchedulerKind::kTagElimination, {"gzip", "equake", "gcc", "mesa"}, 1),
      GoldenRun{15796738916688664714ULL, 33844, 74460, 36158, 2863349, 74692});
}

// ---- 5. golden digests of the paths the six runs above miss ---------------
//
// Partial squash of the LSQ and fetch queue (FLUSH fetch policy), wrong-path
// fetch and squash, the watchdog's full flush and replay, the filtered
// variant's taint scan and a single-thread machine.  Each test also pins
// the count of the events that prove its path ran.  The constants were
// taken before the rings and the templated scheduler boundary replaced the
// deques and virtual calls (docs/PERFORMANCE.md §2).

constexpr std::initializer_list<const char*> kFourMix = {"gzip", "equake", "gcc",
                                                         "mesa"};

TEST(GoldenPathIdentity, FlushFetchPolicySquashesLsqAndFetchQueue) {
  smt::MachineConfig mc = golden_machine(SchedulerKind::kTwoOpBlockOoo, 4);
  mc.fetch_policy = smt::FetchPolicy::kFlush;
  std::uint64_t flushed = 0;
  const GoldenRun got =
      run_machine(mc, kFourMix, 1, &flushed, [](const smt::Pipeline& p) {
        return p.stats().policy_flushed_instructions;
      });
  expect_golden(got,
                GoldenRun{14127672945918635263ULL, 49969, 64939, 29732, 554788, 69980});
  EXPECT_EQ(flushed, 17251u);
}

TEST(GoldenPathIdentity, WrongPathFetchAndSquash) {
  smt::MachineConfig mc = golden_machine(SchedulerKind::kTwoOpBlockOoo, 4);
  mc.model_wrong_path = true;
  std::uint64_t squashes = 0;
  const GoldenRun got =
      run_machine(mc, kFourMix, 1, &squashes, [](const smt::Pipeline& p) {
        return p.stats().wrong_path_squashes;
      });
  expect_golden(got,
                GoldenRun{13396996995215274301ULL, 32489, 73851, 35196, 2511009, 79112});
  EXPECT_EQ(squashes, 635u);
}

TEST(GoldenPathIdentity, WatchdogFlushAndReplay) {
  smt::MachineConfig mc = golden_machine(SchedulerKind::kTwoOpBlockOoo, 4);
  mc.scheduler.iq_entries = 16;
  mc.scheduler.deadlock = DeadlockMode::kWatchdog;
  mc.scheduler.watchdog_timeout = 64;
  std::uint64_t flushes = 0;
  const GoldenRun got =
      run_machine(mc, kFourMix, 1, &flushes, [](const smt::Pipeline& p) {
        return p.scheduler().dispatch_stats().watchdog_flushes;
      });
  expect_golden(got,
                GoldenRun{1242831414267564743ULL, 71606, 94644, 36953, 1349944, 116030});
  EXPECT_EQ(flushes, 242u);
}

TEST(GoldenPathIdentity, FilteredOooTaintScan) {
  std::uint64_t suppressed = 0;
  const GoldenRun got =
      run_machine(golden_machine(SchedulerKind::kTwoOpBlockOooFiltered, 4), kFourMix, 1,
                  &suppressed, [](const smt::Pipeline& p) {
                    return p.scheduler().dispatch_stats().filtered_suppressed;
                  });
  expect_golden(got,
                GoldenRun{14252668427084301146ULL, 33094, 74233, 35200, 2254479, 74479});
  EXPECT_EQ(suppressed, 112535u);
}

TEST(GoldenPathIdentity, SingleThread) {
  std::uint64_t ooo = 0;
  const GoldenRun got =
      run_machine(golden_machine(SchedulerKind::kTwoOpBlockOoo, 1), {"equake"}, 1, &ooo,
                  [](const smt::Pipeline& p) {
                    return p.scheduler().dispatch_stats().ooo_dispatches;
                  });
  expect_golden(got,
                GoldenRun{11793126610513012865ULL, 73069, 30002, 18102, 482771, 30026});
  EXPECT_EQ(ooo, 20424u);
}

/// FNV-1a over a byte stream (the digest's hash, applied per byte).
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Checkpoints serialize every queue in logical (program) order, so the
// byte stream is independent of how a structure lays its entries out.
// The pause point leaves instructions in every fetch queue, LSQ and rename
// buffer, so the pinned bytes cover all three.
TEST(GoldenPathIdentity, MidRunCheckpointBytes) {
  const auto w = workload(kFourMix);
  smt::Pipeline pipe(golden_machine(SchedulerKind::kTwoOpBlockOoo, 4), w, 1);
  pipe.run(11'000);
  auto all_occupied = [&pipe] {
    for (ThreadId t = 0; t < 4; ++t) {
      if (pipe.fetch_queue_size(t) == 0 || pipe.lsq_size(t) == 0 ||
          pipe.scheduler().buffer_size(t) == 0) {
        return false;
      }
    }
    return true;
  };
  Cycle extra = 0;
  for (; extra < 5'000 && !all_occupied(); ++extra) pipe.tick();
  ASSERT_TRUE(all_occupied());
  EXPECT_EQ(extra, 97u);
  persist::Archive ar = persist::Archive::saver();
  pipe.save_state(ar);
  EXPECT_EQ(ar.bytes().size(), 259402u);
  EXPECT_EQ(fnv1a(ar.bytes()), 5491938419190627471ULL);
}

// The metric snapshot reaches users as bytes: --stats-json, served results
// and diagnostic bundles.  These pins cover every metric family with
// nonzero values: intervals and phases, FLUSH and wrong-path counters, and
// the fault counters of a resilience plan.
void expect_bytes(const std::string& doc, std::size_t size, std::uint64_t hash) {
  Fnv1a h;
  h.bytes(doc);
  EXPECT_EQ(doc.size(), size);
  EXPECT_EQ(h.h, hash);
}

std::string run_json(const sim::RunConfig& cfg) {
  std::ostringstream os;
  sim::write_run_json(os, cfg, sim::run_simulation(cfg));
  return os.str();
}

TEST(GoldenPathIdentity, StatsJsonBytes) {
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake", "gcc", "mesa"};
  cfg.kind = SchedulerKind::kTwoOpBlockOoo;
  cfg.iq_entries = 32;
  cfg.interval_cycles = 500;
  cfg.fetch_policy = smt::FetchPolicy::kFlush;
  cfg.model_wrong_path = true;
  cfg.warmup = 2'000;
  cfg.horizon = 20'000;
  expect_bytes(run_json(cfg), 16679u, 8864673099394167091ULL);
}

TEST(GoldenPathIdentity, FaultedStatsJsonBytes) {
  const robust::FaultInjector injector(robust::FaultPlan::random(1, 0, 0.5));
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake"};
  cfg.kind = SchedulerKind::kTwoOpBlockOoo;
  cfg.faults = &injector;
  cfg.verify = true;
  cfg.warmup = 2'000;
  cfg.horizon = 20'000;
  expect_bytes(run_json(cfg), 12625u, 4091873371719723487ULL);
}

TEST(GoldenPathIdentity, HangBundleBytes) {
  robust::FaultPlan plan;
  plan.commit_block_from = 0;
  const robust::FaultInjector injector(plan);
  sim::RunConfig cfg;
  cfg.benchmarks = {"gzip", "equake"};
  cfg.kind = SchedulerKind::kTwoOpBlockOoo;
  cfg.watchdog_timeout = 200;
  cfg.warmup = 1000;
  cfg.horizon = 6000;
  cfg.faults = &injector;
  cfg.hang_cycles = 2000;
  try {
    (void)sim::run_simulation(cfg);
    FAIL() << "commit blockade went undetected";
  } catch (const robust::SimulationAborted& e) {
    expect_bytes(e.bundle(), 13819u, 3419318064645960155ULL);
  }
}

}  // namespace
}  // namespace msim::core
