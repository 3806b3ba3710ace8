#include "smt/rob.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace msim::smt {
namespace {

TEST(Rob, AllocateAndCommitInOrder) {
  ReorderBuffer rob(4);
  EXPECT_TRUE(rob.empty());
  rob.allocate(0);
  rob.allocate(1);
  EXPECT_EQ(rob.size(), 2u);
  EXPECT_EQ(rob.head_seq(), 0u);
  rob.pop_head();
  EXPECT_EQ(rob.head_seq(), 1u);
  rob.pop_head();
  EXPECT_TRUE(rob.empty());
}

TEST(Rob, ContainsTracksWindow) {
  ReorderBuffer rob(4);
  rob.allocate(0);
  rob.allocate(1);
  EXPECT_TRUE(rob.contains(0));
  EXPECT_TRUE(rob.contains(1));
  EXPECT_FALSE(rob.contains(2));
  rob.pop_head();
  EXPECT_FALSE(rob.contains(0));
}

TEST(Rob, EntriesPersistUntilCommit) {
  ReorderBuffer rob(4);
  RobEntry& e = rob.allocate(0);
  e.issued = true;
  e.complete_at = 42;
  rob.allocate(1);
  EXPECT_TRUE(rob.entry(0).issued);
  EXPECT_EQ(rob.entry(0).complete_at, 42u);
  EXPECT_FALSE(rob.entry(1).issued);
}

TEST(Rob, AllocateResetsSlotState) {
  ReorderBuffer rob(2);
  rob.allocate(0).issued = true;
  rob.pop_head();
  // Seq 2 reuses slot 0; it must come back clean.
  rob.allocate(1);
  RobEntry& e = rob.allocate(2);
  EXPECT_FALSE(e.issued);
  EXPECT_EQ(e.complete_at, kCycleNever);
}

TEST(Rob, WrapsAroundRing) {
  ReorderBuffer rob(3);
  for (SeqNum s = 0; s < 100; ++s) {
    rob.allocate(s);
    EXPECT_EQ(rob.head_seq(), s);
    rob.pop_head();
  }
  EXPECT_TRUE(rob.empty());
}

TEST(Rob, FullAtCapacity) {
  ReorderBuffer rob(3);
  for (SeqNum s = 0; s < 3; ++s) rob.allocate(s);
  EXPECT_TRUE(rob.full());
  rob.pop_head();
  EXPECT_FALSE(rob.full());
  rob.allocate(3);
  EXPECT_TRUE(rob.full());
}

TEST(Rob, ForEachVisitsOldestFirst) {
  ReorderBuffer rob(4);
  for (SeqNum s = 0; s < 4; ++s) rob.allocate(s).inst.seq = s;
  rob.pop_head();
  rob.allocate(4).inst.seq = 4;  // wraps into slot 0
  std::vector<SeqNum> order;
  rob.for_each([&](const RobEntry& e) { order.push_back(e.inst.seq); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order.back(), 4u);
}

TEST(Rob, DoneRequiresIssueAndCompletion) {
  RobEntry e;
  EXPECT_FALSE(e.done(100));
  e.issued = true;
  e.complete_at = 50;
  EXPECT_FALSE(e.done(49));
  EXPECT_TRUE(e.done(50));
  EXPECT_TRUE(e.done(51));
}

TEST(Rob, NonConsecutiveAllocationDies) {
  ReorderBuffer rob(4);
  rob.allocate(0);
  EXPECT_THROW(rob.allocate(2), msim::CheckError);
}

TEST(Rob, ClearEmptiesWindow) {
  ReorderBuffer rob(4);
  rob.allocate(0);
  rob.allocate(1);
  rob.clear();
  EXPECT_TRUE(rob.empty());
  // After a clear (flush) allocation restarts from any sequence number.
  rob.allocate(0);
  EXPECT_EQ(rob.head_seq(), 0u);
}


TEST(Rob, TruncateToDropsTheSuffix) {
  ReorderBuffer rob(8);
  for (SeqNum s = 0; s < 6; ++s) rob.allocate(s);
  rob.truncate_to(2);
  EXPECT_EQ(rob.size(), 3u);
  EXPECT_TRUE(rob.contains(2));
  EXPECT_FALSE(rob.contains(3));
  // Allocation resumes right after the kept suffix.
  rob.allocate(3);
  EXPECT_TRUE(rob.contains(3));
}

TEST(Rob, TruncateToHeadKeepsOne) {
  ReorderBuffer rob(4);
  rob.allocate(0);
  rob.allocate(1);
  rob.truncate_to(0);
  EXPECT_EQ(rob.size(), 1u);
  EXPECT_EQ(rob.head_seq(), 0u);
}

TEST(Rob, TruncateToOutsideWindowDies) {
  ReorderBuffer rob(4);
  rob.allocate(0);
  EXPECT_THROW(rob.truncate_to(5), msim::CheckError);
}

}  // namespace
}  // namespace msim::smt
