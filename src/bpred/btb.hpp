// Branch target buffer: set-associative tag/target store shared by all
// threads (Table 1: 2048 entries, 2-way).  Thread id is folded into the tag
// so threads do not alias each other's targets.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::bpred {

struct BtbConfig {
  std::uint32_t entries = 2048;  ///< total entries; must be power of two
  std::uint32_t assoc = 2;
};

struct BtbStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

class Btb {
 public:
  explicit Btb(const BtbConfig& config = {});

  /// Predicted target of the branch at (`tid`, `pc`), or nullopt on miss.
  [[nodiscard]] std::optional<Addr> lookup(ThreadId tid, Addr pc);

  /// Installs / refreshes the target for a taken branch.
  void update(ThreadId tid, Addr pc, Addr target);

  [[nodiscard]] const BtbStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  void state_io(persist::Archive& ar);

 private:
  struct Entry {
    Addr tag = 0;
    Addr target = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
  };

  [[nodiscard]] Addr make_tag(ThreadId tid, Addr pc) const noexcept;
  [[nodiscard]] std::size_t set_of(Addr tag) const noexcept;

  BtbConfig config_;
  std::uint32_t set_count_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;  ///< pseudo-time for LRU within a set
  BtbStats stats_;
};

}  // namespace msim::bpred
