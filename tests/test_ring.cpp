// msim::Ring, the fixed-capacity FIFO behind the fetch queues, LSQs and
// rename buffers: FIFO order across the slot array's wrap-around, the
// order-preserving erase_at out-of-order dispatch takes from, and behaviour
// at exactly the configured (not rounded-up) capacity.  A randomized run
// against std::deque covers every operation at every head position.
#include "common/ring.hpp"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace msim {
namespace {

std::vector<int> contents(const Ring<int>& r) { return {r.begin(), r.end()}; }

TEST(Ring, FifoOrderAcrossWrapAround) {
  Ring<int> r(4);
  int next_in = 0;
  int next_out = 0;
  // 100 pushes through a 4-slot array: the head wraps 25 times.
  for (int round = 0; round < 50; ++round) {
    r.push_back(next_in++);
    r.push_back(next_in++);
    ASSERT_EQ(r.front(), next_out);
    ASSERT_EQ(r.back(), next_in - 1);
    r.pop_front();
    r.pop_front();
    next_out += 2;
  }
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 4; ++i) r.push_back(i);
  r.pop_front();
  r.push_back(4);  // stored in the slot the pop freed, at the array's start
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 4}));
  for (std::uint32_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], static_cast<int>(i + 1));
}

TEST(Ring, EraseAtKeepsSurvivorsInOrder) {
  Ring<int> r(8);
  // Start the live window near the end of the slot array so erases shift
  // elements across the wrap.
  for (int i = 0; i < 6; ++i) r.push_back(-1);
  for (int i = 0; i < 6; ++i) r.pop_front();
  for (int i = 0; i < 8; ++i) r.push_back(i);
  r.erase_at(3);  // middle
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
  r.erase_at(0);  // front
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 4, 5, 6, 7}));
  r.erase_at(r.size() - 1);  // back
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 4, 5, 6}));
  r.push_back(8);
  r.push_back(9);
  r.push_back(10);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 4, 5, 6, 8, 9, 10}));
}

TEST(Ring, FullAtTheConfiguredCapacityNotTheSlotCount) {
  Ring<int> r(5);  // 8 slots underneath
  EXPECT_EQ(r.capacity(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(r.full());
    r.push_back(i);
  }
  EXPECT_TRUE(r.full());
  EXPECT_THROW(r.push_back(5), CheckError);
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 3, 4}));
  // Cycling at full capacity keeps the order through the wrap.
  for (int i = 5; i < 40; ++i) {
    r.pop_front();
    r.push_back(i);
    ASSERT_TRUE(r.full());
    ASSERT_EQ(r.front(), i - 4);
    ASSERT_EQ(r.back(), i);
  }
  r.erase_at(2);
  r.pop_back();
  EXPECT_EQ(contents(r), (std::vector<int>{35, 36, 38}));
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_THROW({ Ring<int> none(0); }, CheckError);
}

TEST(Ring, MatchesDequeUnderRandomOperations) {
  for (const std::uint32_t capacity : {1u, 3u, 8u, 13u}) {
    Ring<int> r(capacity);
    std::deque<int> ref;
    Rng rng(capacity);
    int next = 0;
    for (int step = 0; step < 20'000; ++step) {
      switch (rng.next_below(5)) {
        case 0:
        case 1:
          if (ref.size() < capacity) {
            r.push_back(next);
            ref.push_back(next++);
          }
          break;
        case 2:
          if (!ref.empty()) {
            r.pop_front();
            ref.pop_front();
          }
          break;
        case 3:
          if (!ref.empty()) {
            r.pop_back();
            ref.pop_back();
          }
          break;
        default:
          if (!ref.empty()) {
            const auto i = static_cast<std::uint32_t>(rng.next_below(ref.size()));
            r.erase_at(i);
            ref.erase(ref.begin() + i);
          }
          break;
      }
      ASSERT_EQ(r.size(), ref.size());
      ASSERT_EQ(r.full(), ref.size() == capacity);
      ASSERT_EQ(contents(r), std::vector<int>(ref.begin(), ref.end()))
          << "capacity " << capacity << " step " << step;
    }
  }
}

// Checkpoints store a ring as a deque would be stored: the count, then the
// elements oldest first.  A count above the ring's capacity is refused.
TEST(Ring, ArchiveRoundTripsInLogicalOrderAndRefusesOverfullCounts) {
  auto per = [](persist::Archive& ar, int& v) { ar.io(v); };
  Ring<int> r(3);
  for (int i = 0; i < 3; ++i) r.push_back(-1);
  r.pop_front();
  r.pop_front();
  r.pop_front();
  r.push_back(7);
  r.push_back(8);  // live window wraps the 4-slot array
  persist::Archive save = persist::Archive::saver();
  save.io_ring(r, "test ring", per);
  std::deque<int> as_deque{7, 8};
  persist::Archive deque_save = persist::Archive::saver();
  deque_save.io_sequence(as_deque, per);
  EXPECT_EQ(save.bytes(), deque_save.bytes());

  Ring<int> back(3);
  persist::Archive load = persist::Archive::loader(save.bytes());
  load.io_ring(back, "test ring", per);
  load.expect_end();
  EXPECT_EQ(contents(back), (std::vector<int>{7, 8}));

  std::deque<int> four{1, 2, 3, 4};
  persist::Archive overfull = persist::Archive::saver();
  overfull.io_sequence(four, per);
  persist::Archive bad = persist::Archive::loader(overfull.bytes());
  try {
    bad.io_ring(back, "test ring", per);
    FAIL() << "a 4-entry count loaded into a 3-entry ring";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("test ring holds 4 entries"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace msim
