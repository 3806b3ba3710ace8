// Set-associative cache timing model with LRU replacement, write-back /
// write-allocate policy, and MSHR-style miss coalescing.
//
// This is a *timing* model: no data is stored, only tags and dirty bits.
// An access returns the number of cycles beyond the pipeline's built-in
// access latency before the data is available.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::mem {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t assoc = 4;
  std::uint32_t line_bytes = 64;
  /// Additional cycles charged on a hit beyond the pipeline's base latency
  /// (0 for L1s whose hit time is folded into the load latency; 10 for the
  /// paper's L2).
  std::uint32_t hit_extra = 0;
  /// Maximum outstanding misses (MSHRs); further misses queue behind the
  /// earliest completing one.
  std::uint32_t mshr_count = 8;

  [[nodiscard]] std::uint32_t set_count() const {
    return static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes));
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced_misses = 0;  ///< merged into an in-flight miss
  std::uint64_t mshr_stall_cycles = 0; ///< extra latency waiting for an MSHR
  std::uint64_t dirty_evictions = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

/// CacheStats's one field list, shared by checkpoints and sweep journals.
void io_cache_stats(persist::Archive& ar, CacheStats& s);

/// One level of cache.  `access` updates tag state and returns the extra
/// latency of this level; the caller (MemoryHierarchy) chains levels.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Result of a lookup at this level.
  struct AccessResult {
    bool hit = false;
    /// Cycles beyond the base pipeline latency until this level supplies
    /// the line, *excluding* the next level's latency on a miss (the
    /// hierarchy adds that and then calls `fill`).
    std::uint32_t extra_latency = 0;
    /// For misses: when the MSHR slot frees up and the next-level access
    /// can begin (>= now when MSHRs are saturated).
    Cycle miss_start = 0;
  };

  /// Looks up `addr` at time `now`.  On a hit the line's LRU state is
  /// refreshed; on a miss the caller must later call `fill`.
  AccessResult access(Addr addr, bool is_store, Cycle now);

  /// Inline fast path for the overwhelmingly common case: a hit while no
  /// miss is in flight at this level.  Returns the extra latency, or -1
  /// when the caller must take the out-of-line access() path (a miss, or
  /// possible coalescing with an outstanding fill).  Equivalent to
  /// access() whenever it returns >= 0; accesses that fall through are
  /// *not* counted here (access() counts them).
  [[nodiscard]] std::int32_t try_hit(Addr addr, bool is_store,
                                     Cycle now) noexcept {
    if (!outstanding_.empty()) return -1;
    const Addr laddr = line_addr(addr);
    const std::uint32_t set = set_index(laddr);
    Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == laddr) {
        ++stats_.accesses;
        line.last_used = now;
        line.dirty = line.dirty || is_store;
        return static_cast<std::int32_t>(config_.hit_extra);
      }
    }
    return -1;
  }

  /// Installs the line for a miss that completes at `fill_time` and
  /// registers it in the outstanding-miss table (so later accesses to the
  /// same line coalesce instead of re-missing).
  void fill(Addr addr, bool is_store, Cycle now, Cycle fill_time);

  /// True when the line is present (test/introspection helper).
  [[nodiscard]] bool probe(Addr addr) const noexcept;

  /// Line addresses (addr / line_bytes) of every valid line, sorted
  /// ascending.  Content comparison helper for the functional-warm-up
  /// equivalence tests: two caches that saw the same miss/eviction sequence
  /// have equal resident sets even when their LRU timestamps differ.
  [[nodiscard]] std::vector<Addr> resident_lines() const;

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Checkpoint support: tag/LRU/dirty state, outstanding-miss table, and
  /// statistics all round-trip bit-identically.
  void state_io(persist::Archive& ar);

 private:
  struct Line {
    Addr tag = 0;
    Cycle last_used = 0;
    bool valid = false;
    bool dirty = false;
  };

  // line_bytes and set_count are power-of-two in every supported config
  // (checked in the constructor), so the per-access address math is a
  // shift + mask -- a hardware divide here costs ~10% of whole-run time.
  [[nodiscard]] Addr line_addr(Addr addr) const noexcept {
    return addr >> line_shift_;
  }
  [[nodiscard]] std::uint32_t set_index(Addr laddr) const noexcept {
    return static_cast<std::uint32_t>(laddr & set_mask_);
  }

  void prune_outstanding(Cycle now);

  CacheConfig config_;
  std::uint32_t set_count_;
  std::uint32_t line_shift_ = 0;
  Addr set_mask_ = 0;
  std::vector<Line> lines_;  ///< set-major: lines_[set * assoc + way]
  /// (line address, fill completion time) pairs, for coalescing & MSHR
  /// occupancy.  At most ~mshr_count entries live at once, so a flat array
  /// with linear search beats a tree.
  std::vector<std::pair<Addr, Cycle>> outstanding_;
  /// Earliest fill completion among outstanding_ (kCycleNever when empty).
  /// Lets prune_outstanding skip its scan while nothing has completed --
  /// the common case when tens of misses are in flight -- and resolves
  /// MSHR saturation without a scan.  Derived state: recomputed on load.
  Cycle min_fill_ = kCycleNever;
  [[nodiscard]] const std::pair<Addr, Cycle>* find_outstanding(Addr laddr) const noexcept {
    for (const auto& miss : outstanding_) {
      if (miss.first == laddr) return &miss;
    }
    return nullptr;
  }
  CacheStats stats_;
};

}  // namespace msim::mem
