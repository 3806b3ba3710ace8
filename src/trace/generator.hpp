// Synthetic dynamic instruction stream generator.
//
// Replaces SPEC CPU2000 binary execution (licensing-gated; see DESIGN.md).
// At construction the generator materializes a *static program*: a control
// flow graph of basic blocks with fixed branch biases and fixed taken
// targets laid out over the profile's code footprint.  The dynamic stream
// is a walk of that CFG, so downstream structures observe realistic
// behaviour:
//   * the branch predictor sees per-static-branch biased outcome streams,
//   * the BTB sees stable targets,
//   * the I-cache sees the real code footprint with loop locality,
//   * register dependencies follow the profile's distance distribution, and
//   * data addresses follow the profile's hot/stream/random locality mix.
//
// Everything is deterministic given (profile, seed).
#pragma once

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
};

/// Generates the dynamic instruction stream for one thread context.
class TraceGenerator {
 public:
  TraceGenerator(const BenchmarkProfile& profile, std::uint64_t seed,
                 AddressSpace layout = {});

  /// Next instruction in program order.  The stream is infinite.
  isa::DynInst next();

  /// Synthesizes a plausible instruction at `pc` for wrong-path execution
  /// (after a branch misprediction the front end runs down the predicted
  /// path until the branch resolves).  The architectural walk is not
  /// disturbed: randomness comes from the caller's `rng`, operand and
  /// address choices are sampled fresh, and control flow is left to the
  /// caller (wrong-path direction comes from the predictor).  `pc` values
  /// outside the code region are folded back into it.
  isa::DynInst synthesize_wrong_path(Addr pc, Rng& rng) const;

  /// True when `pc` falls on the final (branch) slot of its basic block.
  [[nodiscard]] bool is_branch_slot(Addr pc) const;
  /// The fall-through successor of the instruction at `pc`.
  [[nodiscard]] Addr fallthrough_of(Addr pc) const;

  [[nodiscard]] const BenchmarkProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] SeqNum generated() const noexcept { return next_seq_; }
  [[nodiscard]] std::size_t static_block_count() const noexcept { return blocks_.size(); }

  /// Checkpoint support.  The static CFG is rebuilt deterministically from
  /// (profile, seed) at construction; only the walk state (RNG, block
  /// cursor, per-block trip counters, dependence rings, stream cursors) is
  /// serialized, and it is loaded over a freshly constructed generator with
  /// the same profile and seed.
  void state_io(persist::Archive& ar);

 private:
  struct Block {
    Addr start_pc = 0;          ///< address of the first instruction
    std::uint32_t length = 1;   ///< instructions, including the final branch
    std::uint32_t target = 0;   ///< taken-path successor block index
    /// Loop-style branches repeat a deterministic trip pattern: `trip - 1`
    /// occurrences of the preferred direction, then one of the other.
    /// 0 marks an unpredictable branch driven by `taken_bias` instead.
    std::uint32_t trip = 0;
    std::uint32_t trip_count = 0;   ///< walk state for the pattern
    float taken_bias = 0.5f;        ///< P(taken) for unpredictable branches
    bool prefer_taken = true;       ///< pattern's dominant direction
    bool unconditional = false;     ///< always taken (jump/call)
  };

  void build_static_cfg();
  /// Index of the block containing `pc` (pc folded into the code region).
  [[nodiscard]] std::size_t block_of(Addr pc) const;
  isa::DynInst make_non_branch(Addr pc);
  isa::DynInst make_branch(Block& block, Addr pc);

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

  BenchmarkProfile profile_;
  AddressSpace layout_;
  Rng rng_;

  // Static program.
  std::vector<Block> blocks_;
  std::array<double, isa::kOpClassCount - 1> non_branch_cum_{};  ///< cumulative op-mix, branch excluded
  std::array<isa::OpClass, isa::kOpClassCount - 1> non_branch_ops_{};
  std::size_t non_branch_count_ = 0;

  // Walk state.
  std::uint32_t cur_block_ = 0;
  std::uint32_t pos_in_block_ = 0;
  SeqNum next_seq_ = 0;

  // Register dependence state: ring buffers of the most recent destination
  // registers of each class.  Destinations are allocated round-robin over a
  // pool larger than the ring, so "the register written d instructions ago"
  // is still architecturally live for every representable distance d.
  static constexpr unsigned kRingSize = 24;
  static constexpr unsigned kDestPool = 28;  ///< regs 1..28 (and fp mirror)
  std::array<ArchReg, kRingSize> int_ring_{};
  std::array<ArchReg, kRingSize> fp_ring_{};
  unsigned int_ring_head_ = 0;
  unsigned fp_ring_head_ = 0;
  unsigned int_rr_ = 0;
  unsigned fp_rr_ = 0;

  // Code-locality structure (see build_static_cfg).
  static constexpr std::uint32_t kRegionBlocks = 64;
  static constexpr double kRegionExitFrac = 0.08;

  // Data-address state.
  std::vector<Addr> stream_pos_;
  std::size_t next_stream_ = 0;
  Addr warm_base_ = 0;
};

}  // namespace msim::trace
