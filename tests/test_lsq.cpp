#include "smt/lsq.hpp"

#include <set>

#include <gtest/gtest.h>

namespace msim::smt {
namespace {

/// Readiness oracle backed by a set.
struct Ready {
  std::set<PhysReg> regs;
  bool operator()(PhysReg r) const { return regs.count(r) > 0; }
};

TEST(Lsq, LoadWithNoOlderStoresAccessesCache) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/false, 0x100, 1, kNoPhysReg);
  Ready ready;
  EXPECT_EQ(lsq.check_load(0, 0x100, ready), LoadVerdict::kAccess);
}

TEST(Lsq, ForwardsFromMatchingStoreWithReadyData) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/true, 0x100, 1, /*data_src=*/5);
  lsq.allocate(1, /*is_store=*/false, 0x100, 2, kNoPhysReg);
  Ready ready;
  ready.regs = {1, 5};
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kForward);
  EXPECT_EQ(lsq.stats().forwards, 1u);
}

TEST(Lsq, BlocksWhenMatchingStoreDataNotReady) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/true, 0x100, 1, /*data_src=*/5);
  lsq.allocate(1, /*is_store=*/false, 0x100, 2, kNoPhysReg);
  Ready ready;  // reg 5 not ready
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kBlocked);
  EXPECT_EQ(lsq.stats().blocked_checks, 1u);
}

TEST(Lsq, StoreWithImmediateDataForwards) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/true, 0x100, kNoPhysReg, kNoPhysReg);
  lsq.allocate(1, /*is_store=*/false, 0x100, kNoPhysReg, kNoPhysReg);
  Ready ready;
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kForward);
}

TEST(Lsq, YoungestMatchingStoreWins) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/true, 0x100, kNoPhysReg, /*data=*/5);  // ready? no
  lsq.allocate(1, /*is_store=*/true, 0x100, kNoPhysReg, /*data=*/6);  // ready
  lsq.allocate(2, /*is_store=*/false, 0x100, kNoPhysReg, kNoPhysReg);
  Ready ready;
  ready.regs = {6};
  // The younger store (seq 1) supplies the value; its data is ready.
  EXPECT_EQ(lsq.check_load(2, 0x100, ready), LoadVerdict::kForward);
}

TEST(Lsq, OracleIgnoresUnresolvedNonMatchingStores) {
  LoadStoreQueue lsq(8, /*oracle_disambiguation=*/true);
  lsq.allocate(0, /*is_store=*/true, 0x200, /*addr_src=*/9, /*data=*/5);
  lsq.allocate(1, /*is_store=*/false, 0x100, kNoPhysReg, kNoPhysReg);
  Ready ready;  // reg 9 (store address) NOT ready, but the address differs
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kAccess);
}

TEST(Lsq, ConservativeBlocksOnUnresolvedStoreAddress) {
  LoadStoreQueue lsq(8, /*oracle_disambiguation=*/false);
  lsq.allocate(0, /*is_store=*/true, 0x200, /*addr_src=*/9, /*data=*/5);
  lsq.allocate(1, /*is_store=*/false, 0x100, kNoPhysReg, kNoPhysReg);
  Ready ready;
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kBlocked);
  ready.regs = {9, 5};
  EXPECT_EQ(lsq.check_load(1, 0x100, ready), LoadVerdict::kAccess);
}

TEST(Lsq, YoungerStoresDoNotAffectTheLoad) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, /*is_store=*/false, 0x100, kNoPhysReg, kNoPhysReg);
  lsq.allocate(1, /*is_store=*/true, 0x100, kNoPhysReg, /*data=*/5);
  Ready ready;  // younger store's data not ready -- irrelevant
  EXPECT_EQ(lsq.check_load(0, 0x100, ready), LoadVerdict::kAccess);
}

TEST(Lsq, CapacityAndPopOrder) {
  LoadStoreQueue lsq(2);
  lsq.allocate(0, false, 0x0, kNoPhysReg, kNoPhysReg);
  lsq.allocate(1, true, 0x8, kNoPhysReg, kNoPhysReg);
  EXPECT_TRUE(lsq.full());
  lsq.pop(0);
  EXPECT_FALSE(lsq.full());
  lsq.pop(1);
  EXPECT_EQ(lsq.size(), 0u);
}

TEST(Lsq, OutOfOrderPopDies) {
  LoadStoreQueue lsq(4);
  lsq.allocate(0, false, 0x0, kNoPhysReg, kNoPhysReg);
  lsq.allocate(1, false, 0x8, kNoPhysReg, kNoPhysReg);
  EXPECT_THROW(lsq.pop(1), msim::CheckError);
}

TEST(Lsq, NonMonotonicAllocateDies) {
  LoadStoreQueue lsq(4);
  lsq.allocate(5, false, 0x0, kNoPhysReg, kNoPhysReg);
  EXPECT_THROW(lsq.allocate(3, false, 0x8, kNoPhysReg, kNoPhysReg), msim::CheckError);
}

TEST(Lsq, ClearResetsEntries) {
  LoadStoreQueue lsq(2);
  lsq.allocate(0, true, 0x0, kNoPhysReg, kNoPhysReg);
  lsq.clear();
  EXPECT_EQ(lsq.size(), 0u);
  // After a flush, replayed sequence numbers restart.
  lsq.allocate(0, false, 0x0, kNoPhysReg, kNoPhysReg);
  EXPECT_EQ(lsq.size(), 1u);
}


TEST(Lsq, SquashYoungerDropsTail) {
  LoadStoreQueue lsq(8);
  lsq.allocate(0, false, 0x0, kNoPhysReg, kNoPhysReg);
  lsq.allocate(3, true, 0x8, kNoPhysReg, kNoPhysReg);
  lsq.allocate(5, false, 0x10, kNoPhysReg, kNoPhysReg);
  lsq.squash_younger(3);
  EXPECT_EQ(lsq.size(), 2u);
  lsq.pop(0);
  lsq.pop(3);
  EXPECT_EQ(lsq.size(), 0u);
  // Replayed younger entries can be re-allocated.
  lsq.allocate(4, false, 0x18, kNoPhysReg, kNoPhysReg);
  EXPECT_EQ(lsq.size(), 1u);
}

TEST(Lsq, SquashAllWhenEverythingIsYounger) {
  LoadStoreQueue lsq(4);
  lsq.allocate(7, true, 0x0, kNoPhysReg, kNoPhysReg);
  lsq.squash_younger(3);
  EXPECT_EQ(lsq.size(), 0u);
}

}  // namespace
}  // namespace msim::smt
