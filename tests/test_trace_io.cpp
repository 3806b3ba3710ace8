#include "trace/trace_io.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "trace/generator.hpp"
#include "trace/profile.hpp"

namespace msim::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("msim_trace_io_test_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()) +
              ".trc"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

std::vector<isa::DynInst> sample_trace(std::size_t n, const char* bench = "gcc") {
  TraceGenerator gen(profile_or_throw(bench), 5);
  std::vector<isa::DynInst> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next());
  return out;
}

TEST_F(TraceIoTest, RoundTripPreservesEveryField) {
  const auto original = sample_trace(5000);
  write_trace(path_, original);
  const auto loaded = read_trace(path_);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded[i].seq, original[i].seq) << i;
    ASSERT_EQ(loaded[i].pc, original[i].pc) << i;
    ASSERT_EQ(loaded[i].next_pc, original[i].next_pc) << i;
    ASSERT_EQ(loaded[i].mem_addr, original[i].mem_addr) << i;
    ASSERT_EQ(loaded[i].op, original[i].op) << i;
    ASSERT_EQ(loaded[i].dest, original[i].dest) << i;
    ASSERT_EQ(loaded[i].src[0], original[i].src[0]) << i;
    ASSERT_EQ(loaded[i].src[1], original[i].src[1]) << i;
    ASSERT_EQ(loaded[i].taken, original[i].taken) << i;
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  write_trace(path_, {});
  EXPECT_TRUE(read_trace(path_).empty());
}

TEST_F(TraceIoTest, RejectsBadMagic) {
  std::ofstream(path_, std::ios::binary) << "NOTATRACEFILE_AT_ALL";
  EXPECT_THROW((void)read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsTruncatedBody) {
  const auto original = sample_trace(100);
  write_trace(path_, original);
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 13u);
  EXPECT_THROW((void)read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsACountTheFileCannotHold) {
  write_trace(path_, sample_trace(10));
  // The u64 count follows the 8-byte magic, little-endian.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  for (int i = 0; i < 8; ++i) f.put(static_cast<char>((huge >> (8 * i)) & 0xff));
  f.close();
  EXPECT_THROW((void)read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_trace("/nonexistent/dir/x.trc"), std::runtime_error);
}

TEST(TraceSummary, CountsMatchDirectScan) {
  const auto insts = sample_trace(20000, "equake");
  const TraceSummary s = summarize_trace(insts);
  EXPECT_EQ(s.instructions, insts.size());
  std::uint64_t branches = 0, loads = 0;
  for (const auto& inst : insts) {
    branches += inst.is_branch() ? 1u : 0u;
    loads += inst.is_load() ? 1u : 0u;
  }
  EXPECT_EQ(s.branches, branches);
  EXPECT_EQ(s.loads, loads);
  EXPECT_GT(s.unique_pcs, 100u);
  EXPECT_GT(s.mean_block_length, 1.0);
  EXPECT_LE(s.taken_branches, s.branches);
}

TEST(TraceSummary, EmptyTrace) {
  const TraceSummary s = summarize_trace({});
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.branches, 0u);
}

}  // namespace
}  // namespace msim::trace
