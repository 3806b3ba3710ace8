#include "trace/generator.hpp"

#include <algorithm>

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::trace {
namespace {

constexpr Addr kInstBytes = StaticProgram::kInstBytes;
static_assert(sizeof(StaticProgram::Block) == 16);
constexpr Addr kHotRegionBytes = 4096;
constexpr std::uint32_t kMaxBlockLen = 48;
/// Destination registers are allocated round-robin over regs 1..28 (and
/// their fp mirror).
constexpr unsigned kDestPool = 28;
// Code-locality structure (see StaticProgram::build_cfg).
constexpr std::uint32_t kRegionBlocks = 64;
constexpr double kRegionExitFrac = 0.08;

}  // namespace

StaticProgram::StaticProgram(const BenchmarkProfile& profile, AddressSpace layout,
                             Rng& rng, std::vector<std::uint32_t>& trip_start)
    : profile_(profile), layout_(layout) {
  MSIM_CHECK(profile_.branch_weight() > 0.0);
  MSIM_CHECK(profile_.code_footprint >= 1024);
  MSIM_CHECK(profile_.data_footprint >= kHotRegionBytes);

  // Cumulative op mix over the non-branch classes; branches are emitted
  // structurally at block ends.
  double weight_sum = 0.0;
  for (double w : profile_.op_weights) weight_sum += w;
  MSIM_CHECK(weight_sum > 0.0);
  double running = 0.0;
  for (std::size_t i = 0; i < isa::kOpClassCount; ++i) {
    const auto op = static_cast<isa::OpClass>(i);
    if (op == isa::OpClass::kBranch) continue;
    const double w = profile_.op_weights[i];
    if (w <= 0.0) continue;
    MSIM_CHECK(non_branch_count_ < non_branch_ops_.size());
    running += w;
    non_branch_cum_[non_branch_count_] = running;
    non_branch_ops_[non_branch_count_] = op;
    ++non_branch_count_;
  }
  MSIM_CHECK(non_branch_count_ > 0);

  build_cfg(rng, trip_start);
}

TraceGenerator::TraceGenerator(const BenchmarkProfile& profile, std::uint64_t seed,
                               AddressSpace layout)
    : rng_(seed),
      program_(profile, layout, rng_, trip_count_),
      profile_(profile) {
  // Seed the producer rings with always-live low registers so that early
  // dependence samples resolve to *some* architectural register.
  for (unsigned i = 0; i < kRingSize; ++i) {
    int_ring_[i] = static_cast<ArchReg>(1 + (i % kDestPool));
    fp_ring_[i] = static_cast<ArchReg>(isa::kIntArchRegs + 1 + (i % kDestPool));
  }

  stream_pos_.resize(std::max<std::uint32_t>(1, profile_.stream_count));
  for (std::size_t s = 0; s < stream_pos_.size(); ++s) {
    stream_pos_[s] = profile_.data_footprint * s / stream_pos_.size();
  }
}

void StaticProgram::build_cfg(Rng& rng, std::vector<std::uint32_t>& trip_start) {
  // Normalize branch frequency to derive the mean basic-block length.
  double weight_sum = 0.0;
  for (double w : profile_.op_weights) weight_sum += w;
  const double branch_frac = profile_.branch_weight() / weight_sum;
  MSIM_CHECK(branch_frac > 0.0 && branch_frac < 1.0);

  const auto static_insts =
      std::max<std::uint64_t>(64, profile_.code_footprint / kInstBytes);

  // Block lengths are drawn uniformly from [mean/2, 3*mean/2].  A uniform
  // band (rather than a geometric draw) keeps the *dynamic* branch
  // frequency close to the profile weight: jump targets are uniform over
  // blocks, so a heavy tail of very short blocks would otherwise be
  // over-visited and inflate the branch rate.
  const double mean_len = 1.0 / branch_frac;
  const auto len_base = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(mean_len / 2.0 + 0.5));
  const auto len_span = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(mean_len));

  // Reserve the expected block count -- static_insts over the mean clamped
  // draw -- plus a margin far beyond its spread, so the loop never
  // reallocates.  The worst case (static_insts / len_base) would
  // over-allocate about 2x.
  double len_sum = 0.0;
  for (std::uint64_t u = 0; u <= len_span; ++u) {
    len_sum += static_cast<double>(
        std::min<std::uint64_t>(kMaxBlockLen, len_base + u));
  }
  const auto expected_blocks = static_cast<std::size_t>(
      static_cast<double>(static_insts) * static_cast<double>(len_span + 1) /
      len_sum);
  blocks_.reserve(expected_blocks + expected_blocks / 32 + 16);
  trip_start.clear();
  trip_start.reserve(blocks_.capacity());

  // Block starts are 32-bit instruction indices.
  MSIM_CHECK(static_insts < (std::uint64_t{1} << 32) - kMaxBlockLen);
  std::uint64_t emitted = 0;
  while (emitted < static_insts) {
    Block b;
    b.start = static_cast<std::uint32_t>(emitted);
    b.length = static_cast<std::uint8_t>(std::min<std::uint32_t>(
        kMaxBlockLen,
        len_base + static_cast<std::uint32_t>(rng.next_below(len_span + 1))));
    std::uint32_t phase = 0;
    b.unconditional = rng.chance(profile_.branch_uncond_frac);
    if (b.unconditional) {
      b.taken_bias = 1.0f;
      b.prefer_taken = true;
    } else if (rng.chance(profile_.branch_predictable_frac)) {
      b.prefer_taken = rng.chance(0.6);
      if (rng.chance(0.5)) {
        // Loop-style branch: a deterministic trip pattern (the preferred
        // direction `trip - 1` times, then once the other way).  The
        // predictor mispredicts about once per trip, so the profile's mean
        // trip count sets the loop-exit miss rate, as in real codes.
        const double p = 1.0 / std::max(1.0, profile_.mean_loop_trip - 2.0);
        b.trip = static_cast<std::uint16_t>(
            2 + std::min<std::uint64_t>(rng.next_geometric(p), 511));
        phase = static_cast<std::uint32_t>(rng.next_below(b.trip));
      } else {
        // Statically biased branch (guard conditions, error paths): the
        // 2-bit counters alone predict these well.
        b.taken_bias = b.prefer_taken ? 0.97f : 0.03f;
      }
    } else {
      b.taken_bias = static_cast<float>(0.35 + 0.30 * rng.next_double());
    }
    emitted += b.length;
    blocks_.push_back(b);
    trip_start.push_back(phase);
  }

  // Fix up taken targets now that the block count is known.  Code locality
  // is hierarchical, like real programs: blocks are grouped into regions
  // (loop nests / functions).  Most taken branches stay within their region
  // -- short backward jumps forming loops -- while a small fraction of
  // "exit" blocks jump to a random other region (calls / phase changes).
  // This gives the branch predictor and the I-cache a realistic, loop-heavy
  // reference stream while the walk still covers the whole code footprint.
  const auto n = static_cast<std::uint32_t>(blocks_.size());
  MSIM_CHECK(n >= 2);
  const std::uint32_t region = std::min<std::uint32_t>(n, kRegionBlocks);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t region_base = (i / region) * region;
    const std::uint32_t region_size = std::min(region, n - region_base);
    std::uint32_t target;
    if (rng.chance(kRegionExitFrac)) {
      target = static_cast<std::uint32_t>(rng.next_below(n));
    } else if (rng.chance(0.7)) {
      // Loop-shaped: jump a short distance backward within the region.
      const auto back = 1 + static_cast<std::uint32_t>(rng.next_below(8));
      target = region_base +
               (i - region_base + region_size - std::min(back, region_size - 1)) %
                   region_size;
    } else {
      target = region_base + static_cast<std::uint32_t>(rng.next_below(region_size));
    }
    if (target == i) target = (i + 1) % n;
    blocks_[i].target = target;
  }
}

ArchReg TraceGenerator::sample_source(bool fp, bool older) {
  const double far_chance = older
                                ? std::min(1.0, profile_.far_operand_frac + 0.10)
                                : profile_.far_operand_frac;
  if (rng_.chance(far_chance)) {
    return kNoArchReg;  // produced long ago; ready by dispatch time
  }
  const double p = (!older && rng_.chance(profile_.dep_near_frac))
                       ? profile_.dep_near_p
                       : profile_.dep_far_p;
  auto distance = static_cast<unsigned>(1 + rng_.next_geometric(p));
  distance = std::min(distance, kRingSize);
  const auto& ring = fp ? fp_ring_ : int_ring_;
  const unsigned head = fp ? fp_ring_head_ : int_ring_head_;
  return ring[(head + kRingSize - distance) % kRingSize];
}

ArchReg TraceGenerator::alloc_dest(bool fp) {
  unsigned& rr = fp ? fp_rr_ : int_rr_;
  const auto base = static_cast<ArchReg>(fp ? isa::kIntArchRegs + 1 : 1);
  const auto reg = static_cast<ArchReg>(base + rr);
  rr = (rr + 1) % kDestPool;
  auto& ring = fp ? fp_ring_ : int_ring_;
  unsigned& head = fp ? fp_ring_head_ : int_ring_head_;
  ring[head] = reg;
  head = (head + 1) % kRingSize;
  return reg;
}

Addr TraceGenerator::sample_mem_addr() {
  const double u = rng_.next_double();
  Addr offset;
  if (u < profile_.hot_frac) {
    // Stack / scalar locals: a tiny region that always stays cached.
    offset = rng_.next_below(kHotRegionBytes);
  } else if (u < profile_.hot_frac + profile_.warm_frac) {
    // Current working objects: mostly L1-resident.  The warm window drifts
    // slowly through the footprint so the L2 also sees reuse and turnover.
    const Addr warm = std::min<Addr>(profile_.warm_bytes, profile_.data_footprint);
    if (rng_.chance(1e-4)) {
      warm_base_ = rng_.next_below(profile_.data_footprint);
    }
    offset = (warm_base_ + rng_.next_below(warm)) % profile_.data_footprint;
  } else if (u < profile_.hot_frac + profile_.warm_frac + profile_.stream_frac) {
    Addr& pos = stream_pos_[next_stream_];
    next_stream_ = (next_stream_ + 1) % stream_pos_.size();
    pos += profile_.stream_stride;
    if (pos >= profile_.data_footprint) pos = 0;
    offset = pos;
  } else {
    offset = rng_.next_below(profile_.data_footprint);
  }
  return (program_.layout().data_base + offset) & ~Addr{7};
}

isa::DynInst TraceGenerator::make_non_branch(Addr pc) {
  isa::DynInst inst;
  inst.pc = pc;
  inst.next_pc = pc + kInstBytes;
  inst.op = program_.sample_non_branch_op(rng_);

  using isa::OpClass;
  switch (inst.op) {
    case OpClass::kLoad: {
      inst.src[0] = sample_source(/*fp=*/false,
                                  rng_.chance(profile_.load_addr_old_frac));
      const bool fp_dest = rng_.chance(profile_.fp_load_frac);
      inst.dest = alloc_dest(fp_dest);
      inst.mem_addr = sample_mem_addr();
      break;
    }
    case OpClass::kStore: {
      inst.src[0] = sample_source(/*fp=*/false,
                                  rng_.chance(profile_.load_addr_old_frac));
      const bool fp_data = rng_.chance(profile_.fp_store_frac);
      inst.src[1] = sample_source(fp_data);       // store data
      inst.mem_addr = sample_mem_addr();
      break;
    }
    case OpClass::kFpSqrt: {
      inst.src[0] = sample_source(/*fp=*/true);
      inst.dest = alloc_dest(/*fp=*/true);
      break;
    }
    case OpClass::kFpAdd:
    case OpClass::kFpMult:
    case OpClass::kFpDiv: {
      inst.src[0] = sample_source(/*fp=*/true);
      if (rng_.chance(profile_.two_source_frac)) {
        inst.src[1] = sample_source(/*fp=*/true, /*older=*/true);
      }
      inst.dest = alloc_dest(/*fp=*/true);
      break;
    }
    default: {  // integer ALU / mult / div
      inst.src[0] = sample_source(/*fp=*/false);
      if (rng_.chance(profile_.two_source_frac)) {
        inst.src[1] = sample_source(/*fp=*/false, /*older=*/true);
      }
      inst.dest = alloc_dest(/*fp=*/false);
      break;
    }
  }
  return inst;
}

isa::DynInst TraceGenerator::make_branch(const Block& block, Addr pc) {
  isa::DynInst inst;
  inst.pc = pc;
  inst.op = isa::OpClass::kBranch;
  if (!block.unconditional) {
    inst.src[0] = sample_source(/*fp=*/false);
    if (rng_.chance(0.5 * profile_.two_source_frac)) {
      inst.src[1] = sample_source(/*fp=*/false);
    }
  }
  if (block.unconditional) {
    inst.taken = true;
  } else if (block.trip > 0) {
    const std::uint32_t trips = ++trip_count_[cur_block_];
    const bool preferred = trips % block.trip != 0;
    inst.taken = preferred == block.prefer_taken;
  } else {
    inst.taken = rng_.chance(block.taken_bias);
  }
  const std::uint32_t next_block = program_.successor(cur_block_, inst.taken);
  inst.next_pc = program_.start_pc(program_.blocks()[next_block]);
  cur_block_ = next_block;
  pos_in_block_ = 0;
  return inst;
}

std::size_t StaticProgram::block_of(Addr pc) const {
  const Addr code_end = start_pc(blocks_.back()) + blocks_.back().length * kInstBytes;
  if (pc < layout_.code_base || pc >= code_end) {
    pc = layout_.code_base + (pc % (code_end - layout_.code_base)) / kInstBytes *
                                 kInstBytes;
  }
  // First block that starts past pc, minus one.
  const Addr index = (pc - layout_.code_base) / kInstBytes;
  std::size_t lo = 0, hi = blocks_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (blocks_[mid].start <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool StaticProgram::is_branch_slot(Addr pc) const {
  const Block& b = blocks_[block_of(pc)];
  const Addr first = start_pc(b);
  return pc >= first && pc == first + (b.length - 1) * kInstBytes;
}

Addr StaticProgram::fallthrough_of(Addr pc) const {
  const std::size_t idx = block_of(pc);
  const Block& b = blocks_[idx];
  const Addr next = pc + kInstBytes;
  const Addr block_end = start_pc(b) + b.length * kInstBytes;
  if (next < block_end) return next;
  return start_pc(blocks_[(idx + 1) % blocks_.size()]);
}

isa::DynInst StaticProgram::synthesize_wrong_path(Addr pc, Rng& rng) const {
  const std::size_t idx = block_of(pc);
  const Block& b = blocks_[idx];
  const Addr first = start_pc(b);
  const Addr folded = pc >= first && pc < first + b.length * kInstBytes ? pc : first;

  isa::DynInst inst;
  inst.pc = folded;
  inst.next_pc = fallthrough_of(folded);
  if (is_branch_slot(folded)) {
    inst.op = isa::OpClass::kBranch;
    if (!b.unconditional) {
      inst.src[0] = static_cast<ArchReg>(1 + rng.next_below(kDestPool));
    }
    // Direction and target are the front end's (predictor's) business on
    // the wrong path; `taken` is never consulted for these instructions.
    return inst;
  }

  // Sample a plausible non-branch operation and operands.  Dependencies are
  // drawn over the recently-writable register window; actual readiness is
  // whatever the rename map says, which is exactly the point: wrong-path
  // instructions compete for real resources.
  inst.op = sample_non_branch_op(rng);
  const bool fp = isa::writes_fp_reg(inst.op) ||
                  (inst.op == isa::OpClass::kLoad && rng.chance(profile_.fp_load_frac));
  const auto reg_of = [&rng](bool want_fp) {
    const auto base = static_cast<ArchReg>(want_fp ? isa::kIntArchRegs + 1 : 1);
    return static_cast<ArchReg>(base + rng.next_below(kDestPool));
  };
  switch (inst.op) {
    case isa::OpClass::kLoad:
      inst.src[0] = reg_of(false);
      inst.dest = reg_of(fp);
      inst.mem_addr =
          (layout_.data_base + rng.next_below(profile_.data_footprint)) & ~Addr{7};
      break;
    case isa::OpClass::kStore:
      inst.src[0] = reg_of(false);
      inst.src[1] = reg_of(rng.chance(profile_.fp_store_frac));
      inst.mem_addr =
          (layout_.data_base + rng.next_below(profile_.data_footprint)) & ~Addr{7};
      break;
    default:
      inst.src[0] = reg_of(isa::writes_fp_reg(inst.op));
      if (rng.chance(profile_.two_source_frac)) {
        inst.src[1] = reg_of(isa::writes_fp_reg(inst.op));
      }
      inst.dest = reg_of(isa::writes_fp_reg(inst.op));
      break;
  }
  return inst;
}

isa::DynInst TraceGenerator::next() {
  const Block& block = program_.blocks()[cur_block_];
  const Addr pc = program_.start_pc(block) + Addr{pos_in_block_} * kInstBytes;
  isa::DynInst inst;
  if (pos_in_block_ + 1 >= block.length) {
    inst = make_branch(block, pc);  // resets cur_block_/pos_in_block_
  } else {
    inst = make_non_branch(pc);
    ++pos_in_block_;
  }
  inst.seq = next_seq_++;
  return inst;
}

void TraceGenerator::state_io(persist::Archive& ar) {
  ar.section("trace-generator");
  rng_.state_io(ar);
  // Static CFG shape is reconstructed from (profile, seed); only the
  // per-block walk counters are dynamic.
  std::uint64_t block_count = trip_count_.size();
  ar.io(block_count);
  if (!ar.saving() && block_count != trip_count_.size()) {
    throw persist::PersistError(
        "checkpoint: static CFG shape mismatch (different profile or seed)");
  }
  for (std::uint32_t& trips : trip_count_) ar.io(trips);
  ar.io(cur_block_);
  ar.io(pos_in_block_);
  ar.io(next_seq_);
  for (ArchReg& r : int_ring_) ar.io(r);
  for (ArchReg& r : fp_ring_) ar.io(r);
  ar.io(int_ring_head_);
  ar.io(fp_ring_head_);
  ar.io(int_rr_);
  ar.io(fp_rr_);
  ar.io(stream_pos_);
  std::uint64_t next_stream = next_stream_;
  ar.io(next_stream);
  next_stream_ = static_cast<std::size_t>(next_stream);
  ar.io(warm_base_);
}

}  // namespace msim::trace
