// Generate once, replay many times: a thread's program-order instruction
// stream shared by every pipeline that runs the same (profile, seed,
// layout).
//
// A sweep runs each (mix, IQ) workload under several scheduler kinds, and
// every kind consumes the same per-thread streams, only to different
// depths.  A SharedStream generates its stream once, into packed 8-byte
// records held in fixed-size chunks, as far as its furthest cursor has
// read, and any number of StreamCursors replay it.  The kinds of a group
// run one after another on one thread, so nothing here is synchronized.
//
// A record keeps what the walk of the static program cannot recompute: the
// operation class, the registers, the branch outcome and the data offset.
// A cursor recomputes pc, next_pc and seq by walking the shared
// StaticProgram beside the records, so a replayed instruction equals the
// generated one field for field.  See docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"

namespace msim::trace {

/// One program-order instruction without its pc, next_pc and seq.  Bits,
/// from the least significant: op (4), taken (1), dest (7), src[0] (7),
/// src[1] (7), then the data address as an offset in 8-byte words from the
/// layout's data base (38).  A register field of 127 means kNoArchReg.
using PackedInst = std::uint64_t;

/// The largest data footprint a record's offset field covers (2 TiB).
inline constexpr std::uint64_t kPackedFootprintLimit = std::uint64_t{1} << 41;

/// Packs `inst` (a generated instruction of a profile whose footprint is
/// within kPackedFootprintLimit); a field out of the record's range fails a
/// check.
[[nodiscard]] PackedInst pack(const isa::DynInst& inst, Addr data_base);

/// The fields `pack` kept; pc, next_pc and seq are left zero.
[[nodiscard]] isa::DynInst unpack(PackedInst record, Addr data_base) noexcept;

class SharedStream {
 public:
  /// Records per chunk: 16 KB of memory.
  static constexpr std::size_t kChunk = 2048;

  /// The stream of TraceGenerator(profile, seed, layout).  A footprint
  /// beyond kPackedFootprintLimit fails a check.
  SharedStream(const BenchmarkProfile& profile, std::uint64_t seed, AddressSpace layout);

  SharedStream(const SharedStream&) = delete;
  SharedStream& operator=(const SharedStream&) = delete;

  [[nodiscard]] const StaticProgram& program() const noexcept { return gen_.program(); }

  /// Records [k * kChunk, (k + 1) * kChunk), generating every chunk up to
  /// `k` first.  The pointer stays valid for the stream's lifetime.
  [[nodiscard]] const PackedInst* chunk(std::size_t k);

  /// Records generated so far.
  [[nodiscard]] std::uint64_t generated() const noexcept { return chunks_.size() * kChunk; }

 private:
  Addr data_base_;
  TraceGenerator gen_;
  std::vector<std::unique_ptr<PackedInst[]>> chunks_;
  bool broken_ = false;  ///< a chunk's generation threw part-way
};

/// Replays a SharedStream from its first instruction: the sequence a fresh
/// TraceGenerator with the stream's profile, seed and layout would emit.
/// The stream must outlive the cursor.
class StreamCursor {
 public:
  explicit StreamCursor(SharedStream& stream);

  /// Next instruction in program order.  The stream is infinite.
  isa::DynInst next();

  [[nodiscard]] const StaticProgram& program() const noexcept { return *program_; }

 private:
  SharedStream* stream_;
  const StaticProgram* program_;
  Addr data_base_;
  const PackedInst* chunk_ = nullptr;
  std::size_t next_chunk_ = 0;
  std::size_t pos_ = SharedStream::kChunk;  ///< next record within chunk_
  std::uint32_t cur_block_ = 0;
  std::uint32_t pos_in_block_ = 0;
  SeqNum next_seq_ = 0;
};

/// The streams of one group of runs: every request for the same (profile,
/// seed, layout) gets the same SharedStream, which lives as long as the
/// set.
class StreamSet {
 public:
  [[nodiscard]] SharedStream& stream(const BenchmarkProfile& profile, std::uint64_t seed,
                                     AddressSpace layout);

 private:
  struct Entry {
    BenchmarkProfile profile;
    std::uint64_t seed;
    AddressSpace layout;
    std::unique_ptr<SharedStream> stream;
  };
  std::vector<Entry> entries_;
};

}  // namespace msim::trace
