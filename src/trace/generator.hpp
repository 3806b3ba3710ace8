// Synthetic dynamic instruction stream generator.
//
// Replaces SPEC CPU2000 binary execution (licensing-gated; see DESIGN.md).
// At construction the generator materializes a *static program*
// (StaticProgram): a control flow graph of basic blocks with fixed branch
// biases and fixed taken targets laid out over the profile's code
// footprint.  The dynamic stream is a walk of that CFG, so downstream
// structures observe realistic behaviour:
//   * the branch predictor sees per-static-branch biased outcome streams,
//   * the BTB sees stable targets,
//   * the I-cache sees the real code footprint with loop locality,
//   * register dependencies follow the profile's distance distribution, and
//   * data addresses follow the profile's hot/stream/random locality mix.
//
// Everything is deterministic given (profile, seed).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "trace/profile.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::trace {

/// Per-thread address-space layout.  Threads get disjoint virtual regions;
/// interference still happens where it should (in the shared caches, via
/// index conflicts and capacity pressure).
struct AddressSpace {
  Addr code_base = 0x0040'0000;
  Addr data_base = 0x1000'0000;

  /// Conventional layout for hardware thread `tid`.
  static AddressSpace for_thread(ThreadId tid) noexcept {
    const Addr stride = Addr{1} << 40;
    return {.code_base = 0x0040'0000 + stride * tid,
            .data_base = 0x1000'0000 + stride * tid};
  }

  friend bool operator==(const AddressSpace&, const AddressSpace&) = default;
};

/// The static half of a synthetic program: a control flow graph of basic
/// blocks with fixed branch behaviour and taken targets laid out over the
/// profile's code footprint, plus the op-mix tables.  It is built from
/// (profile, layout) and the first draws of the generator's RNG, and is
/// immutable afterwards, so the replay cursors of a shared stream
/// (trace/shared_stream.hpp) walk the copy its generator built.
class StaticProgram {
 public:
  static constexpr Addr kInstBytes = 4;

  /// 16 bytes: the largest programs have about 15k blocks.
  struct Block {
    std::uint32_t start = 0;      ///< first instruction, as an index into the code region
    std::uint32_t target = 0;     ///< taken-path successor block index
    float taken_bias = 0.5f;      ///< P(taken) for unpredictable branches
    /// Loop-style branches repeat a deterministic trip pattern: `trip - 1`
    /// occurrences of the preferred direction, then one of the other.
    /// 0 marks an unpredictable branch driven by `taken_bias` instead.
    std::uint16_t trip = 0;
    std::uint8_t length = 1;      ///< instructions, including the final branch
    bool prefer_taken : 1 = true;     ///< pattern's dominant direction
    bool unconditional : 1 = false;   ///< always taken (jump/call)
  };

  /// Builds the program, drawing its shape from `rng`.  `trip_start`
  /// receives each block's trip-pattern phase at the start of a walk,
  /// which is walk state, not program.
  StaticProgram(const BenchmarkProfile& profile, AddressSpace layout, Rng& rng,
                std::vector<std::uint32_t>& trip_start);

  [[nodiscard]] const BenchmarkProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] AddressSpace layout() const noexcept { return layout_; }
  [[nodiscard]] const std::vector<Block>& blocks() const noexcept { return blocks_; }
  /// Address of block `b`'s first instruction.
  [[nodiscard]] Addr start_pc(const Block& b) const noexcept {
    return layout_.code_base + Addr{b.start} * kInstBytes;
  }

  /// The block a walk enters once block `b`'s branch resolves `taken`.
  [[nodiscard]] std::uint32_t successor(std::uint32_t b, bool taken) const noexcept {
    return taken ? blocks_[b].target
                 : (b + 1 == blocks_.size() ? 0 : b + 1);
  }

  /// Draws a non-branch operation class from the profile's op mix.
  [[nodiscard]] isa::OpClass sample_non_branch_op(Rng& rng) const {
    return non_branch_ops_[rng.next_index({non_branch_cum_.data(), non_branch_count_})];
  }

  /// Synthesizes a plausible instruction at `pc` for wrong-path execution
  /// (after a branch misprediction the front end runs down the predicted
  /// path until the branch resolves).  No walk is disturbed: randomness
  /// comes from the caller's `rng`, operand and address choices are sampled
  /// fresh, and control flow is left to the caller (wrong-path direction
  /// comes from the predictor).  `pc` values outside the code region are
  /// folded back into it.
  [[nodiscard]] isa::DynInst synthesize_wrong_path(Addr pc, Rng& rng) const;

  /// True when `pc` falls on the final (branch) slot of its basic block.
  [[nodiscard]] bool is_branch_slot(Addr pc) const;
  /// The fall-through successor of the instruction at `pc`.
  [[nodiscard]] Addr fallthrough_of(Addr pc) const;

 private:
  void build_cfg(Rng& rng, std::vector<std::uint32_t>& trip_start);
  /// Index of the block containing `pc` (pc folded into the code region).
  [[nodiscard]] std::size_t block_of(Addr pc) const;

  BenchmarkProfile profile_;
  AddressSpace layout_;
  std::vector<Block> blocks_;
  std::array<double, isa::kOpClassCount - 1> non_branch_cum_{};  ///< cumulative op-mix, branch excluded
  std::array<isa::OpClass, isa::kOpClassCount - 1> non_branch_ops_{};
  std::size_t non_branch_count_ = 0;
};

/// Generates the dynamic instruction stream for one thread context: a walk
/// of its StaticProgram.
class TraceGenerator {
 public:
  TraceGenerator(const BenchmarkProfile& profile, std::uint64_t seed,
                 AddressSpace layout = {});

  /// Next instruction in program order.  The stream is infinite.
  isa::DynInst next();

  [[nodiscard]] const StaticProgram& program() const noexcept { return program_; }
  [[nodiscard]] const BenchmarkProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] SeqNum generated() const noexcept { return next_seq_; }
  [[nodiscard]] std::size_t static_block_count() const noexcept {
    return program_.blocks().size();
  }

  /// Checkpoint support.  The static program is rebuilt deterministically
  /// from (profile, seed) at construction; only the walk state (RNG, block
  /// cursor, per-block trip counters, dependence rings, stream cursors) is
  /// serialized, and it is loaded over a freshly constructed generator with
  /// the same profile and seed.
  void state_io(persist::Archive& ar);

 private:
  using Block = StaticProgram::Block;

  isa::DynInst make_non_branch(Addr pc);
  isa::DynInst make_branch(const Block& block, Addr pc);

  /// Samples a register source operand of the given class, or kNoArchReg
  /// for a "far" (always-ready) operand.  With `older`, the operand is
  /// biased toward long-distance producers (accumulators, indices computed
  /// well in advance), as is typical of second operands and array address
  /// bases in real code.
  ArchReg sample_source(bool fp, bool older = false);
  /// Allocates the next destination register of the given class and records
  /// it in the recent-producer ring.
  ArchReg alloc_dest(bool fp);
  Addr sample_mem_addr();

  // Walk state, with the program it walks: rng_ builds program_ first.
  Rng rng_;
  std::vector<std::uint32_t> trip_count_;  ///< per block, for the trip patterns
  StaticProgram program_;
  BenchmarkProfile profile_;  ///< a copy of program_.profile()
  std::uint32_t cur_block_ = 0;
  std::uint32_t pos_in_block_ = 0;
  SeqNum next_seq_ = 0;

  // Register dependence state: ring buffers of the most recent destination
  // registers of each class.  Destinations are allocated round-robin over a
  // pool larger than the ring, so "the register written d instructions ago"
  // is still architecturally live for every representable distance d.
  static constexpr unsigned kRingSize = 24;
  std::array<ArchReg, kRingSize> int_ring_{};
  std::array<ArchReg, kRingSize> fp_ring_{};
  unsigned int_ring_head_ = 0;
  unsigned fp_ring_head_ = 0;
  unsigned int_rr_ = 0;
  unsigned fp_rr_ = 0;

  // Data-address state.
  std::vector<Addr> stream_pos_;
  std::size_t next_stream_ = 0;
  Addr warm_base_ = 0;
};

}  // namespace msim::trace
