#include "smt/rename.hpp"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace msim::smt {
namespace {

isa::DynInst alu(ArchReg dest, ArchReg s0 = kNoArchReg, ArchReg s1 = kNoArchReg) {
  isa::DynInst inst;
  inst.op = isa::OpClass::kIntAlu;
  inst.dest = dest;
  inst.src[0] = s0;
  inst.src[1] = s1;
  return inst;
}

TEST(Rename, InitialMappingsAreReady) {
  RenameUnit r(2, 256, 256);
  for (ThreadId t = 0; t < 2; ++t) {
    for (ArchReg a = 0; a < isa::kArchRegCount; ++a) {
      const PhysReg p = r.committed_mapping(t, a);
      ASSERT_NE(p, kNoPhysReg);
      EXPECT_TRUE(r.is_ready(p));
    }
  }
}

TEST(Rename, InitialMappingsAreDisjointAcrossThreads) {
  RenameUnit r(4, 256, 256);
  std::set<PhysReg> seen;
  for (ThreadId t = 0; t < 4; ++t) {
    for (ArchReg a = 0; a < isa::kArchRegCount; ++a) {
      EXPECT_TRUE(seen.insert(r.committed_mapping(t, a)).second);
    }
  }
}

TEST(Rename, FreeListAccounting) {
  RenameUnit r(2, 256, 256);
  EXPECT_EQ(r.free_int_regs(), 256u - 2 * isa::kIntArchRegs);
  EXPECT_EQ(r.free_fp_regs(), 256u - 2 * isa::kFpArchRegs);
}

TEST(Rename, AllocatesFreshDestAndClearsReady) {
  RenameUnit r(1, 256, 256);
  const RenameResult rr = r.rename(0, alu(/*dest=*/5));
  EXPECT_NE(rr.dest, kNoPhysReg);
  EXPECT_NE(rr.prev_dest, kNoPhysReg);
  EXPECT_NE(rr.dest, rr.prev_dest);
  EXPECT_FALSE(r.is_ready(rr.dest));
  EXPECT_EQ(r.free_int_regs(), 256u - isa::kIntArchRegs - 1);
}

TEST(Rename, SourcesResolveToLatestMapping) {
  RenameUnit r(1, 256, 256);
  const RenameResult producer = r.rename(0, alu(/*dest=*/5));
  const RenameResult consumer = r.rename(0, alu(/*dest=*/6, /*s0=*/5));
  EXPECT_EQ(consumer.src[0], producer.dest);
  EXPECT_EQ(consumer.src[1], kNoPhysReg);
}

TEST(Rename, FpAndIntUseSeparateFreeLists) {
  RenameUnit r(1, 256, 256);
  const ArchReg fp_reg = isa::kIntArchRegs + 3;
  isa::DynInst inst = alu(fp_reg);
  inst.op = isa::OpClass::kFpAdd;
  const unsigned int_before = r.free_int_regs();
  (void)r.rename(0, inst);
  EXPECT_EQ(r.free_int_regs(), int_before);
  EXPECT_EQ(r.free_fp_regs(), 256u - isa::kFpArchRegs - 1);
}

TEST(Rename, CommitRecyclesPreviousMapping) {
  RenameUnit r(1, 256, 256);
  const RenameResult rr = r.rename(0, alu(5));
  const unsigned free_before = r.free_int_regs();
  r.set_ready(rr.dest);
  r.commit(0, 5, rr.dest, rr.prev_dest);
  EXPECT_EQ(r.free_int_regs(), free_before + 1);
  EXPECT_EQ(r.committed_mapping(0, 5), rr.dest);
}

TEST(Rename, CanAllocateReflectsExhaustion) {
  // Minimum viable file: 32 arch + 1 spare.
  RenameUnit r(1, isa::kIntArchRegs + 1, isa::kFpArchRegs + 1);
  EXPECT_TRUE(r.can_allocate(3));
  (void)r.rename(0, alu(3));
  EXPECT_FALSE(r.can_allocate(3));                     // int exhausted
  EXPECT_TRUE(r.can_allocate(isa::kIntArchRegs + 2));  // fp still free
  EXPECT_TRUE(r.can_allocate(kNoArchReg));             // no dest needed
}

TEST(Rename, RoundTripRenameCommitNeverLeaks) {
  RenameUnit r(1, 64, 64);
  const unsigned free0 = r.free_int_regs();
  for (int i = 0; i < 1000; ++i) {
    const auto dest = static_cast<ArchReg>(i % isa::kIntArchRegs);
    const RenameResult rr = r.rename(0, alu(dest));
    r.set_ready(rr.dest);
    r.commit(0, dest, rr.dest, rr.prev_dest);
  }
  EXPECT_EQ(r.free_int_regs(), free0);
}

TEST(Rename, FlushRestoresCommittedMapAndRecycles) {
  RenameUnit r(1, 256, 256);
  const PhysReg committed5 = r.committed_mapping(0, 5);
  const RenameResult a = r.rename(0, alu(5));
  const RenameResult b = r.rename(0, alu(5));
  // In-flight chain: committed5 -> a.dest -> b.dest; nothing committed.
  const unsigned free_before = r.free_int_regs();
  r.flush_thread(0, {a.dest, b.dest});
  EXPECT_EQ(r.free_int_regs(), free_before + 2);
  // The speculative map is rewound: renaming a reader of r5 sees the
  // committed mapping again.
  const RenameResult reader = r.rename(0, alu(/*dest=*/6, /*s0=*/5));
  EXPECT_EQ(reader.src[0], committed5);
}

TEST(Rename, FlushThenReplayReachesSameMappingsState) {
  RenameUnit r(1, 256, 256);
  const RenameResult first = r.rename(0, alu(7));
  r.flush_thread(0, {first.dest});
  const RenameResult replayed = r.rename(0, alu(7));
  // The same (only) free register comes back.
  EXPECT_EQ(replayed.dest, first.dest);
  EXPECT_EQ(replayed.prev_dest, first.prev_dest);
}


TEST(Rename, RewindMappingUndoesOneRename) {
  RenameUnit r(1, 256, 256);
  const PhysReg committed = r.committed_mapping(0, 4);
  const RenameResult a = r.rename(0, alu(4));
  const RenameResult b = r.rename(0, alu(4));
  const unsigned free_before = r.free_int_regs();
  // Undo youngest-first: b then a.
  r.rewind_mapping(0, 4, b.dest, b.prev_dest);
  r.rewind_mapping(0, 4, a.dest, a.prev_dest);
  EXPECT_EQ(r.free_int_regs(), free_before + 2);
  const RenameResult reader = r.rename(0, alu(5, /*s0=*/4));
  EXPECT_EQ(reader.src[0], committed);
}

TEST(Rename, RewindOutOfOrderDies) {
  RenameUnit r(1, 256, 256);
  const RenameResult a = r.rename(0, alu(4));
  (void)r.rename(0, alu(4));
  // a is no longer the current mapping; rewinding it first is a bug.
  EXPECT_THROW(r.rewind_mapping(0, 4, a.dest, a.prev_dest), msim::CheckError);
}

}  // namespace
}  // namespace msim::smt
