#include "trace/shared_stream.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace msim::trace {
namespace {

constexpr unsigned kOpBits = 4;
constexpr unsigned kRegBits = 7;
constexpr unsigned kOffsetBits = 38;
constexpr unsigned kTakenShift = kOpBits;
constexpr unsigned kDestShift = kTakenShift + 1;
constexpr unsigned kSrc0Shift = kDestShift + kRegBits;
constexpr unsigned kSrc1Shift = kSrc0Shift + kRegBits;
constexpr unsigned kOffsetShift = kSrc1Shift + kRegBits;
static_assert(kOffsetShift + kOffsetBits == 64);
// Offsets are below the footprint and 8-byte aligned.
static_assert(kPackedFootprintLimit == std::uint64_t{1} << (kOffsetBits + 3));
static_assert(isa::kOpClassCount <= (1u << kOpBits));
static_assert(isa::kArchRegCount < (1u << kRegBits) - 1);

constexpr std::uint64_t kRegMask = (1u << kRegBits) - 1;
constexpr std::uint64_t kNoReg = kRegMask;  ///< the field value of kNoArchReg

std::uint64_t pack_reg(ArchReg r) {
  if (r == kNoArchReg) return kNoReg;
  MSIM_CHECK(r < kNoReg);
  return r;
}

ArchReg unpack_reg(std::uint64_t field) noexcept {
  return field == kNoReg ? kNoArchReg : static_cast<ArchReg>(field);
}

}  // namespace

PackedInst pack(const isa::DynInst& inst, Addr data_base) {
  std::uint64_t offset = 0;
  if (inst.is_mem()) {
    const Addr delta = inst.mem_addr - data_base;
    MSIM_CHECK((delta & 7) == 0 && (delta >> 3) < (std::uint64_t{1} << kOffsetBits));
    offset = delta >> 3;
  } else {
    MSIM_CHECK(inst.mem_addr == 0);
  }
  return static_cast<std::uint64_t>(inst.op) |
         std::uint64_t{inst.taken} << kTakenShift |
         pack_reg(inst.dest) << kDestShift |
         pack_reg(inst.src[0]) << kSrc0Shift |
         pack_reg(inst.src[1]) << kSrc1Shift |
         offset << kOffsetShift;
}

isa::DynInst unpack(PackedInst record, Addr data_base) noexcept {
  isa::DynInst inst;
  inst.op = static_cast<isa::OpClass>(record & ((1u << kOpBits) - 1));
  inst.taken = ((record >> kTakenShift) & 1) != 0;
  inst.dest = unpack_reg((record >> kDestShift) & kRegMask);
  inst.src[0] = unpack_reg((record >> kSrc0Shift) & kRegMask);
  inst.src[1] = unpack_reg((record >> kSrc1Shift) & kRegMask);
  if (inst.is_mem()) inst.mem_addr = data_base + ((record >> kOffsetShift) << 3);
  return inst;
}

// ---- SharedStream -------------------------------------------------------------

SharedStream::SharedStream(const BenchmarkProfile& profile, std::uint64_t seed,
                           AddressSpace layout)
    : data_base_(layout.data_base), gen_(profile, seed, layout) {
  MSIM_CHECK(profile.data_footprint <= kPackedFootprintLimit);
}

const PackedInst* SharedStream::chunk(std::size_t k) {
  while (k >= chunks_.size()) {
    // A chunk left half-generated would shift every later record.
    if (broken_) throw std::runtime_error("shared stream: generation failed earlier");
    broken_ = true;
    auto fresh = std::make_unique_for_overwrite<PackedInst[]>(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) fresh[i] = pack(gen_.next(), data_base_);
    chunks_.push_back(std::move(fresh));
    broken_ = false;
  }
  return chunks_[k].get();
}

// ---- StreamCursor -------------------------------------------------------------

StreamCursor::StreamCursor(SharedStream& stream)
    : stream_(&stream),
      program_(&stream.program()),
      data_base_(program_->layout().data_base) {}

isa::DynInst StreamCursor::next() {
  if (pos_ == SharedStream::kChunk) {
    chunk_ = stream_->chunk(next_chunk_++);
    pos_ = 0;
  }
  isa::DynInst inst = unpack(chunk_[pos_++], data_base_);
  // The generator's walk: a block's last slot is its branch.
  const StaticProgram::Block& block = program_->blocks()[cur_block_];
  inst.pc = program_->start_pc(block) + Addr{pos_in_block_} * StaticProgram::kInstBytes;
  if (pos_in_block_ + 1 >= block.length) {
    cur_block_ = program_->successor(cur_block_, inst.taken);
    pos_in_block_ = 0;
    inst.next_pc = program_->start_pc(program_->blocks()[cur_block_]);
  } else {
    ++pos_in_block_;
    inst.next_pc = inst.pc + StaticProgram::kInstBytes;
  }
  inst.seq = next_seq_++;
  return inst;
}

// ---- StreamSet ------------------------------------------------------------------

SharedStream& StreamSet::stream(const BenchmarkProfile& profile, std::uint64_t seed,
                                AddressSpace layout) {
  for (const Entry& e : entries_) {
    if (e.seed == seed && e.layout == layout && e.profile == profile) return *e.stream;
  }
  entries_.push_back({profile, seed, layout,
                      std::make_unique<SharedStream>(profile, seed, layout)});
  return *entries_.back().stream;
}

}  // namespace msim::trace
