// Behavioural tests of the four dispatch policies, the deadlock-avoidance
// buffer and the watchdog -- the paper's core mechanisms.
#include "core/scheduler.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace msim::core {
namespace {

/// Test double: readiness is an explicit set; "oldest in ROB" is an
/// explicit (tid -> seq) map.
struct FakeEnv {
  [[nodiscard]] bool is_ready(PhysReg reg) const { return ready.count(reg) > 0; }
  [[nodiscard]] bool is_oldest_in_rob(ThreadId tid, SeqNum seq) const {
    const auto it = oldest.find(tid);
    return it != oldest.end() && it->second == seq;
  }
  void set_ready(PhysReg reg) { ready.insert(reg); }
  void clear_ready(PhysReg reg) { ready.erase(reg); }
  void set_oldest(ThreadId tid, SeqNum seq) { oldest[tid] = seq; }

  std::set<PhysReg> ready;
  std::map<ThreadId, SeqNum> oldest;
};
static_assert(DispatchEnv<FakeEnv>);

/// Accepts every offer (or the first `limit`) and records the order.
struct RecordingIssueEnv {
  bool try_issue(const SchedInst& inst, bool from_dab) {
    if (issued.size() >= limit) return false;
    issued.push_back(inst);
    from_dab_flags.push_back(from_dab);
    return true;
  }

  std::size_t limit = 1000;
  std::vector<SchedInst> issued;
  std::vector<bool> from_dab_flags;
};
static_assert(IssueEnv<RecordingIssueEnv>);

SchedulerConfig config_for(SchedulerKind kind, std::uint32_t iq = 8) {
  SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.iq_entries = iq;
  cfg.rename_buffer_entries = 16;
  return cfg;
}

SchedInst inst(ThreadId tid, SeqNum seq, PhysReg s0 = kNoPhysReg,
               PhysReg s1 = kNoPhysReg, PhysReg dest = kNoPhysReg) {
  SchedInst si;
  si.tid = tid;
  si.seq = seq;
  si.src[0] = s0;
  si.src[1] = s1;
  si.dest = dest;
  return si;
}

// ---- traditional ------------------------------------------------------------

TEST(TraditionalDispatch, DispatchesTwoNonReadyInstructions) {
  Scheduler s(config_for(SchedulerKind::kTraditional), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, /*s0=*/10, /*s1=*/11));  // both sources non-ready
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 1u);
  EXPECT_EQ(s.dispatch_stats().dispatched_by_nonready[2], 1u);
}

TEST(TraditionalDispatch, InOrderWithinThread) {
  Scheduler s(config_for(SchedulerKind::kTraditional), 1, 2, 8);
  FakeEnv env;
  for (SeqNum q = 0; q < 4; ++q) s.insert(inst(0, q));
  (void)s.run_dispatch(1, env);
  // Width 2: exactly the two oldest went.
  RecordingIssueEnv issue;
  (void)s.run_select(2, issue);
  ASSERT_EQ(issue.issued.size(), 2u);
  EXPECT_EQ(issue.issued[0].seq, 0u);
  EXPECT_EQ(issue.issued[1].seq, 1u);
}

TEST(TraditionalDispatch, StopsWhenIqFull) {
  Scheduler s(config_for(SchedulerKind::kTraditional, /*iq=*/2), 1, 8, 8);
  FakeEnv env;
  for (SeqNum q = 0; q < 4; ++q) s.insert(inst(0, q));
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 2u);
  EXPECT_EQ(s.dispatch_stats().iq_full_thread_cycles, 1u);
  EXPECT_EQ(s.buffer_size(0), 2u);
}

// ---- 2OP_BLOCK --------------------------------------------------------------

TEST(TwoOpBlock, NdiBlocksWholeThread) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // NDI: two distinct non-ready sources
  s.insert(inst(0, 1));          // dispatchable, but stuck behind the NDI
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 0u);
  EXPECT_EQ(s.buffer_size(0), 2u);
  EXPECT_EQ(s.dispatch_stats().ndi_blocked_thread_cycles, 1u);
  EXPECT_EQ(s.dispatch_stats().all_threads_ndi_stall_cycles, 1u);
}

TEST(TwoOpBlock, UnblocksWhenOneSourceBecomesReady) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));
  s.insert(inst(0, 1));
  (void)s.run_dispatch(1, env);
  env.set_ready(10);  // first source arrives
  const auto result = s.run_dispatch(2, env);
  EXPECT_EQ(result.dispatched, 2u);  // the ex-NDI and the one behind it
  EXPECT_EQ(s.dispatch_stats().dispatched_by_nonready[1], 1u);
}

TEST(TwoOpBlock, DuplicateSourceCountsOnce) {
  // Both operands name the same register: one comparator suffices, so this
  // is NOT an NDI.
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, /*s0=*/10, /*s1=*/10));
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 1u);
}

TEST(TwoOpBlock, ReadySourcesDontNeedComparators) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 1, 8, 8);
  FakeEnv env;
  env.set_ready(10);
  s.insert(inst(0, 0, 10, 11));  // only one non-ready
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 1u);
}

TEST(TwoOpBlock, OtherThreadsProceedPastABlockedThread) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 2, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // thread 0 blocked
  s.insert(inst(1, 0));
  s.insert(inst(1, 1));
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 2u);
  EXPECT_EQ(s.buffer_size(0), 1u);
  EXPECT_EQ(s.buffer_size(1), 0u);
  // Not an all-thread stall: thread 1 dispatched.
  EXPECT_EQ(s.dispatch_stats().all_threads_ndi_stall_cycles, 0u);
}

TEST(TwoOpBlock, HdiSamplingBehindNdi) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlock), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // blocking NDI
  s.insert(inst(0, 1));          // HDI
  s.insert(inst(0, 2, 20, 21));  // another NDI (not an HDI)
  s.insert(inst(0, 3));          // HDI
  (void)s.run_dispatch(1, env);
  EXPECT_EQ(s.dispatch_stats().behind_ndi_examined, 3u);
  EXPECT_EQ(s.dispatch_stats().behind_ndi_hdis, 2u);
}

// ---- 2OP_BLOCK + out-of-order dispatch --------------------------------------

TEST(OooDispatch, HdisBypassTheNdi) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // NDI stays
  s.insert(inst(0, 1));          // HDI dispatches
  s.insert(inst(0, 2));          // HDI dispatches
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 2u);
  EXPECT_EQ(s.buffer_size(0), 1u);  // only the NDI remains
  EXPECT_EQ(s.dispatch_stats().ooo_dispatches, 2u);
}

TEST(OooDispatch, Figure2Example) {
  // The paper's Figure 2: I1 dispatchable, I2 has two non-ready sources,
  // I3 independent of I2, I4 dependent on I2.  I1, I3 AND I4 dispatch
  // (no filtering); I2 stays.
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, kNoPhysReg, kNoPhysReg, /*dest=*/1));      // I1
  s.insert(inst(0, 1, 50, 51, /*dest=*/2));                      // I2 (NDI)
  s.insert(inst(0, 2, kNoPhysReg, kNoPhysReg, /*dest=*/3));      // I3
  s.insert(inst(0, 3, /*s0=*/2, kNoPhysReg, /*dest=*/4));        // I4 reads I2
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 3u);
  EXPECT_EQ(s.buffer_size(0), 1u);
  // I3 and I4 bypassed the NDI; I4 is the dependent one.
  EXPECT_EQ(s.dispatch_stats().ooo_dispatches, 2u);
  EXPECT_EQ(s.dispatch_stats().ooo_dispatches_dependent, 1u);
}

TEST(OooDispatch, TransitiveDependenceIsTracked) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 50, 51, /*dest=*/2));                 // NDI writes r2
  s.insert(inst(0, 1, /*s0=*/2, kNoPhysReg, /*dest=*/3));   // depends on NDI
  s.insert(inst(0, 2, /*s0=*/3, kNoPhysReg, /*dest=*/4));   // transitively dependent
  (void)s.run_dispatch(1, env);
  EXPECT_EQ(s.dispatch_stats().ooo_dispatches, 2u);
  EXPECT_EQ(s.dispatch_stats().ooo_dispatches_dependent, 2u);
}

TEST(OooDispatch, ScanDepthBoundsTheSearch) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlockOoo);
  cfg.scan_depth = 2;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // NDI (examined: 1)
  s.insert(inst(0, 1, 12, 13));  // NDI (examined: 2) -> scan stops
  s.insert(inst(0, 2));          // dispatchable but beyond the scan depth
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 0u);
}

TEST(OooDispatch, NdiDispatchesOnceASourceArrives) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));
  (void)s.run_dispatch(1, env);
  EXPECT_EQ(s.buffer_size(0), 1u);
  env.set_ready(11);
  EXPECT_EQ(s.run_dispatch(2, env).dispatched, 1u);
  EXPECT_EQ(s.buffer_size(0), 0u);
}

TEST(OooDispatch, WidthIsSharedAcrossThreads) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/16), 2, 4, 8);
  FakeEnv env;
  for (SeqNum q = 0; q < 4; ++q) {
    s.insert(inst(0, q));
    s.insert(inst(1, q));
  }
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 4u);
  // Round-robin: each thread got two.
  EXPECT_EQ(s.buffer_size(0), 2u);
  EXPECT_EQ(s.buffer_size(1), 2u);
}

// ---- idealized filtering ablation -------------------------------------------

TEST(FilteredDispatch, SuppressesNdiDependentHdis) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOooFiltered), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 50, 51, /*dest=*/2));                 // NDI
  s.insert(inst(0, 1, /*s0=*/2, kNoPhysReg, /*dest=*/3));   // dependent HDI
  s.insert(inst(0, 2));                                     // independent HDI
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 1u);  // only the independent one
  EXPECT_EQ(s.dispatch_stats().filtered_suppressed, 1u);
  EXPECT_EQ(s.buffer_size(0), 2u);
}

TEST(FilteredDispatch, TransitiveSuppression) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOooFiltered), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 50, 51, /*dest=*/2));                 // NDI
  s.insert(inst(0, 1, /*s0=*/2, kNoPhysReg, /*dest=*/3));   // dependent
  s.insert(inst(0, 2, /*s0=*/3, kNoPhysReg, /*dest=*/4));   // transitively dep
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 0u);
  EXPECT_EQ(s.dispatch_stats().filtered_suppressed, 2u);
}

// ---- deadlock-avoidance buffer ----------------------------------------------

TEST(Dab, OldestRobInstructionParksWhenIqFull) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);  // fills the 1-entry IQ
  s.insert(inst(0, 1));
  env.set_oldest(0, 1);          // seq 0 has committed; 1 is oldest in ROB
  const auto result = s.run_dispatch(2, env);
  EXPECT_EQ(result.dispatched, 1u);
  EXPECT_TRUE(s.dab_occupied(0));
  EXPECT_EQ(s.dispatch_stats().dab_inserts, 1u);
}

TEST(Dab, NonOldestDoesNotPark) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);
  s.insert(inst(0, 1));
  env.set_oldest(0, 0);  // seq 0 is still in the ROB (in the IQ, unissued)
  EXPECT_EQ(s.run_dispatch(2, env).dispatched, 0u);
  EXPECT_FALSE(s.dab_occupied(0));
  EXPECT_EQ(s.dispatch_stats().iq_full_thread_cycles, 1u);
}

TEST(Dab, IssuesWithPriorityAndExclusively) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);
  s.insert(inst(0, 1));
  env.set_oldest(0, 1);
  (void)s.run_dispatch(2, env);  // parks seq 1 in the DAB
  RecordingIssueEnv issue;
  (void)s.run_select(3, issue);
  // Exclusive mode: only the DAB instruction may issue this cycle even
  // though the IQ entry (seq 0) is also ready.
  ASSERT_EQ(issue.issued.size(), 1u);
  EXPECT_EQ(issue.issued[0].seq, 1u);
  EXPECT_TRUE(issue.from_dab_flags[0]);
  EXPECT_FALSE(s.dab_occupied(0));
  EXPECT_EQ(s.dispatch_stats().dab_issues, 1u);
}

TEST(Dab, NonExclusiveModeAllowsIqIssueAlongside) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1);
  cfg.dab_exclusive = false;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);
  s.insert(inst(0, 1));
  env.set_oldest(0, 1);
  (void)s.run_dispatch(2, env);
  RecordingIssueEnv issue;
  (void)s.run_select(3, issue);
  EXPECT_EQ(issue.issued.size(), 2u);
  EXPECT_TRUE(issue.from_dab_flags[0]);   // DAB still offered first
  EXPECT_FALSE(issue.from_dab_flags[1]);
}

TEST(Dab, RejectedOfferKeepsInstructionParked) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);
  s.insert(inst(0, 1));
  env.set_oldest(0, 1);
  (void)s.run_dispatch(2, env);
  RecordingIssueEnv refuse;
  refuse.limit = 0;  // e.g. all function units busy
  EXPECT_EQ(s.run_select(3, refuse), 0u);
  EXPECT_TRUE(s.dab_occupied(0));
}

// ---- watchdog ----------------------------------------------------------------

TEST(Watchdog, FiresAfterTimeoutOfNoDispatchWithWorkWaiting) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlockOoo);
  cfg.deadlock = DeadlockMode::kWatchdog;
  cfg.watchdog_timeout = 3;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // permanently blocked NDI
  EXPECT_FALSE(s.run_dispatch(1, env).watchdog_fired);
  EXPECT_FALSE(s.run_dispatch(2, env).watchdog_fired);
  EXPECT_TRUE(s.run_dispatch(3, env).watchdog_fired);
  EXPECT_EQ(s.dispatch_stats().watchdog_flushes, 1u);
}

TEST(Watchdog, DispatchResetsTheCountdown) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlockOoo);
  cfg.deadlock = DeadlockMode::kWatchdog;
  cfg.watchdog_timeout = 3;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));
  (void)s.run_dispatch(1, env);
  (void)s.run_dispatch(2, env);
  s.insert(inst(0, 1));  // an HDI arrives and dispatches -> reset
  EXPECT_FALSE(s.run_dispatch(3, env).watchdog_fired);
  EXPECT_FALSE(s.run_dispatch(4, env).watchdog_fired);
  EXPECT_FALSE(s.run_dispatch(5, env).watchdog_fired);
  EXPECT_TRUE(s.run_dispatch(6, env).watchdog_fired);
}

TEST(Watchdog, IdleMachineNeverFires) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlockOoo);
  cfg.deadlock = DeadlockMode::kWatchdog;
  cfg.watchdog_timeout = 2;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  for (Cycle c = 1; c < 20; ++c) {
    EXPECT_FALSE(s.run_dispatch(c, env).watchdog_fired);
  }
}

TEST(Watchdog, InOrderPoliciesNeverFire) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTwoOpBlock);
  cfg.deadlock = DeadlockMode::kWatchdog;
  cfg.watchdog_timeout = 2;
  Scheduler s(cfg, 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));
  for (Cycle c = 1; c < 20; ++c) {
    EXPECT_FALSE(s.run_dispatch(c, env).watchdog_fired);
  }
}

// ---- flush & bookkeeping -----------------------------------------------------

TEST(SchedulerFlush, ClearsAllState) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  (void)s.run_dispatch(1, env);
  s.insert(inst(0, 1));
  env.set_oldest(0, 1);
  (void)s.run_dispatch(2, env);  // DAB occupied, IQ full
  s.flush();
  EXPECT_EQ(s.buffer_size(0), 0u);
  EXPECT_FALSE(s.dab_occupied(0));
  EXPECT_EQ(s.iq().size(), 0u);
  EXPECT_EQ(s.held_instructions(0), 0u);
  // Replay after a flush restarts at an older sequence number.
  s.insert(inst(0, 0));
  EXPECT_EQ(s.run_dispatch(3, env).dispatched, 1u);
}

TEST(SchedulerBookkeeping, HeldInstructionsCountsAllStations) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/1), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  s.insert(inst(0, 1, 10, 11));
  EXPECT_EQ(s.held_instructions(0), 2u);
  (void)s.run_dispatch(1, env);  // seq 0 -> IQ
  EXPECT_EQ(s.held_instructions(0), 2u);
  s.insert(inst(0, 2));
  env.set_oldest(0, 0);
  (void)s.run_dispatch(2, env);
  EXPECT_EQ(s.held_instructions(0), 3u);
}

TEST(SchedulerBookkeeping, OutOfOrderInsertIsRejected) {
  Scheduler s(config_for(SchedulerKind::kTraditional), 1, 8, 8);
  s.insert(inst(0, 0));
  s.insert(inst(0, 1));
  EXPECT_THROW(s.insert(inst(0, 5)), msim::CheckError);
}

TEST(SchedulerBookkeeping, BufferCapacityEnforced) {
  SchedulerConfig cfg = config_for(SchedulerKind::kTraditional);
  cfg.rename_buffer_entries = 2;
  Scheduler s(cfg, 1, 8, 8);
  s.insert(inst(0, 0));
  EXPECT_TRUE(s.buffer_has_space(0));
  s.insert(inst(0, 1));
  EXPECT_FALSE(s.buffer_has_space(0));
}

// ---- cross-policy conservation property --------------------------------------

class PolicyConservation : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(PolicyConservation, EveryInsertedInstructionIsAccountedFor) {
  SchedulerConfig cfg = config_for(GetParam(), /*iq=*/4);
  Scheduler s(cfg, 2, 4, 4);
  FakeEnv env;
  // Point "oldest in ROB" at a sequence number that never enters the
  // buffers so the DAB path stays cold; this keeps the accounting simple
  // (the DAB invariant requires the pipeline's real commit behaviour).
  env.set_oldest(0, ~SeqNum{0});
  env.set_oldest(1, ~SeqNum{0});
  std::uint64_t inserted = 0, issued = 0;
  SeqNum next_seq[2] = {0, 0};
  std::uint64_t rng = 88172645463325252ULL;
  auto rand = [&rng] {
    rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17;
    return rng;
  };
  for (Cycle c = 1; c <= 300; ++c) {
    for (ThreadId t = 0; t < 2; ++t) {
      if (s.buffer_has_space(t) && rand() % 2) {
        const PhysReg s0 = rand() % 3 ? kNoPhysReg : static_cast<PhysReg>(rand() % 8);
        const PhysReg s1 = rand() % 3 ? kNoPhysReg : static_cast<PhysReg>(rand() % 8);
        s.insert(inst(t, next_seq[t]++, s0, s1));
        ++inserted;
      }
    }
    // Make low registers ready over time so NDIs eventually unblock.
    if (c % 5 == 0) env.set_ready(static_cast<PhysReg>((c / 5) % 8));
    (void)s.run_dispatch(c, env);
    RecordingIssueEnv sink;
    issued += s.run_select(c, sink);
  }
  const std::uint64_t held = s.held_instructions(0) + s.held_instructions(1);
  EXPECT_EQ(inserted, issued + held);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PolicyConservation,
    ::testing::Values(SchedulerKind::kTraditional, SchedulerKind::kTwoOpBlock,
                      SchedulerKind::kTwoOpBlockOoo,
                      SchedulerKind::kTwoOpBlockOooFiltered),
    [](const ::testing::TestParamInfo<SchedulerKind>& param_info) {
      return std::string(scheduler_kind_name(param_info.param));
    });

TEST(SchedulerNames, AllNamed) {
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kTraditional), "traditional");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kTwoOpBlock), "2op_block");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kTwoOpBlockOoo), "2op_block_ooo");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kTwoOpBlockOooFiltered),
            "2op_block_ooo_filtered");
  EXPECT_EQ(deadlock_mode_name(DeadlockMode::kAvoidanceBuffer), "avoidance_buffer");
  EXPECT_EQ(deadlock_mode_name(DeadlockMode::kWatchdog), "watchdog");
}


// ---- tag elimination (related-work design) ------------------------------------

TEST(TagElimination, TwoNonReadyUsesATwoComparatorEntry) {
  Scheduler s(config_for(SchedulerKind::kTagElimination, /*iq=*/8), 1, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0, 10, 11));  // needs a 2-cmp entry; layout has 8/4 = 2
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 1u);
  EXPECT_EQ(s.dispatch_stats().dispatched_by_nonready[2], 1u);
}

TEST(TagElimination, BlocksWhenTwoCmpEntriesExhausted) {
  Scheduler s(config_for(SchedulerKind::kTagElimination, /*iq=*/8), 1, 8, 8);
  FakeEnv env;
  // The 8-entry layout has two 2-comparator entries; fill them.
  s.insert(inst(0, 0, 10, 11));
  s.insert(inst(0, 1, 12, 13));
  s.insert(inst(0, 2, 14, 15));  // no 2-cmp entry left
  s.insert(inst(0, 3));          // would fit a 0/1-cmp entry, but in-order
  const auto result = s.run_dispatch(1, env);
  EXPECT_EQ(result.dispatched, 2u);
  EXPECT_EQ(s.buffer_size(0), 2u);
  EXPECT_EQ(s.dispatch_stats().iq_full_thread_cycles, 1u);
  // Not an NDI in the 2OP_BLOCK sense: the layout CAN hold it.
  EXPECT_EQ(s.dispatch_stats().ndi_blocked_thread_cycles, 0u);
}

TEST(TagElimination, ReadyInstructionsFlowThroughSmallEntries) {
  Scheduler s(config_for(SchedulerKind::kTagElimination, /*iq=*/8), 1, 8, 8);
  FakeEnv env;
  for (SeqNum q = 0; q < 8; ++q) s.insert(inst(0, q));  // all ready
  EXPECT_EQ(s.run_dispatch(1, env).dispatched, 8u);
  EXPECT_TRUE(s.iq().full());
}

TEST(SchedulerSquash, RemovesYoungerFromBufferAndIq) {
  Scheduler s(config_for(SchedulerKind::kTwoOpBlockOoo, /*iq=*/8), 2, 8, 8);
  FakeEnv env;
  s.insert(inst(0, 0));
  s.insert(inst(0, 1));
  (void)s.run_dispatch(1, env);      // both into the IQ
  s.insert(inst(0, 2, 10, 11));      // NDI stays in the buffer
  s.insert(inst(1, 0));
  s.squash_younger(0, 0);
  EXPECT_EQ(s.buffer_size(0), 0u);   // seq 2 squashed from the buffer
  EXPECT_EQ(s.held_instructions(0), 1u);  // only IQ seq 0 remains
  EXPECT_EQ(s.buffer_size(1), 1u);   // other thread untouched
  // Replay re-inserts starting at the squash point.
  s.insert(inst(0, 1));
  EXPECT_EQ(s.buffer_size(0), 1u);
}

}  // namespace
}  // namespace msim::core
