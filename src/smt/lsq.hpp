// Per-thread load/store queue (Table 1: 48 entries per thread) with
// conservative memory disambiguation and store-to-load forwarding.
//
// A load may issue only when every older store in its thread has a resolved
// address (address source register ready).  If the youngest older store
// with a matching address has its data ready the load forwards from it
// (no cache access); if the data is not ready the load must wait.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

enum class LoadVerdict : std::uint8_t {
  kAccess,   ///< proceed to the data cache
  kForward,  ///< store-to-load forwarding; value bypassed in the LSQ
  kBlocked,  ///< an older store is unresolved or its data is not ready
};

struct LsqStats {
  std::uint64_t loads_checked = 0;
  std::uint64_t forwards = 0;
  std::uint64_t blocked_checks = 0;
};

class LoadStoreQueue {
 public:
  /// With `oracle_disambiguation` (the default, matching the perfect
  /// memory-disambiguation configuration of SimpleScalar-era simulators),
  /// a load is blocked only by an older store to the SAME address whose
  /// data is not ready.  Without it, any older store with an unresolved
  /// address blocks the load (conservative hardware).
  explicit LoadStoreQueue(std::uint32_t capacity, bool oracle_disambiguation = true)
      : oracle_(oracle_disambiguation), entries_(capacity), stores_(capacity) {}

  [[nodiscard]] bool full() const noexcept { return entries_.full(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Allocates an entry at rename, in program order.
  void allocate(SeqNum seq, bool is_store, Addr addr, PhysReg addr_src,
                PhysReg data_src) {
    MSIM_CHECK(!full());
    MSIM_CHECK(entries_.empty() || seq > entries_.back().seq);
    const Entry e{seq, addr, addr_src, data_src, is_store};
    entries_.push_back(e);
    if (is_store) stores_.push_back(e);
  }

  /// Memory-order check for a load about to issue.  `ready` reports
  /// physical-register readiness (kNoPhysReg counts as ready).
  template <typename ReadyFn>
  [[nodiscard]] LoadVerdict check_load(SeqNum load_seq, Addr addr, ReadyFn&& ready) {
    ++stats_.loads_checked;
    const Entry* forward_from = nullptr;
    for (const Entry& e : stores_) {
      if (e.seq >= load_seq) break;
      if (!oracle_ && e.addr_src != kNoPhysReg && !ready(e.addr_src)) {
        ++stats_.blocked_checks;
        return LoadVerdict::kBlocked;  // unresolved older store address
      }
      if (e.addr == addr) forward_from = &e;  // youngest match wins
    }
    if (forward_from == nullptr) return LoadVerdict::kAccess;
    if (forward_from->data_src == kNoPhysReg || ready(forward_from->data_src)) {
      ++stats_.forwards;
      return LoadVerdict::kForward;
    }
    ++stats_.blocked_checks;
    return LoadVerdict::kBlocked;  // matching store's data not yet produced
  }

  /// Commit-time release; must match the oldest entry.
  void pop(SeqNum seq) {
    MSIM_CHECK(!entries_.empty() && entries_.front().seq == seq);
    if (entries_.front().is_store) stores_.pop_front();
    entries_.pop_front();
  }

  /// Drops entries younger than `after_seq` (partial squash; they are at
  /// the tail because allocation is in program order).
  void squash_younger(SeqNum after_seq) noexcept {
    while (!entries_.empty() && entries_.back().seq > after_seq) {
      entries_.pop_back();
    }
    while (!stores_.empty() && stores_.back().seq > after_seq) stores_.pop_back();
  }

  void clear() noexcept {
    entries_.clear();
    stores_.clear();
  }

  [[nodiscard]] const LsqStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  void state_io(persist::Archive& ar);

 private:
  struct Entry {
    SeqNum seq;
    Addr addr;
    PhysReg addr_src;
    PhysReg data_src;
    bool is_store;
  };

  bool oracle_;
  Ring<Entry> entries_;  ///< every in-flight load and store, program order
  Ring<Entry> stores_;   ///< the stores of entries_, for check_load's walk
  LsqStats stats_;
};

}  // namespace msim::smt
