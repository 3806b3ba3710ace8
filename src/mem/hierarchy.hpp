// Two-level memory hierarchy (L1I + L1D over a unified L2 over DRAM),
// configured per Table 1 of the paper.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "obs/registry.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::mem {

struct HierarchyConfig {
  // MSHR counts are generous by default: the paper's M-Sim substrate
  // (SimpleScalar-derived) does not bound outstanding misses, and the
  // out-of-order dispatch mechanism's benefit on memory-bound workloads
  // comes precisely from the extra memory-level parallelism a deeper
  // window exposes.  The caps remain configurable for ablations.
  CacheConfig l1i{.name = "L1I", .size_bytes = 64 * 1024, .assoc = 2,
                  .line_bytes = 128, .hit_extra = 0, .mshr_count = 16};
  CacheConfig l1d{.name = "L1D", .size_bytes = 32 * 1024, .assoc = 4,
                  .line_bytes = 256, .hit_extra = 0, .mshr_count = 64};
  CacheConfig l2{.name = "L2", .size_bytes = 2 * 1024 * 1024, .assoc = 8,
                 .line_bytes = 512, .hit_extra = 10, .mshr_count = 128};
  /// Main-memory access latency in cycles (Table 1: 150).
  std::uint32_t memory_latency = 150;
};

struct HierarchyStats {
  CacheStats l1i;
  CacheStats l1d;
  CacheStats l2;
  std::uint64_t memory_accesses = 0;
};

/// Chains the cache levels and returns, for each access, the extra latency
/// beyond the pipeline's base operation latency.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config = {});

  /// Data access (load or store) at `now`; returns extra cycles until the
  /// value is available (0 on an L1D hit).  The L1 hit case stays inline;
  /// misses and in-flight-fill bookkeeping take the out-of-line path.
  std::uint32_t access_data(Addr addr, bool is_store, Cycle now) {
    const std::int32_t fast = l1d_.try_hit(addr, is_store, now);
    if (fast >= 0) return static_cast<std::uint32_t>(fast);
    return access_through(l1d_, addr, is_store, now);
  }

  /// Instruction fetch of the line containing `pc` at `now`; returns extra
  /// cycles until fetch can proceed (0 on an L1I hit).
  std::uint32_t access_inst(Addr pc, Cycle now) {
    const std::int32_t fast = l1i_.try_hit(pc, /*is_store=*/false, now);
    if (fast >= 0) return static_cast<std::uint32_t>(fast);
    return access_through(l1i_, pc, /*is_store=*/false, now);
  }

  [[nodiscard]] HierarchyStats stats() const;
  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }

  /// Appends per-level metrics to `out` under `prefix` (e.g. "mem.").
  void append_metrics(std::vector<obs::MetricSnapshot>& out,
                      const std::string& prefix) const;

  /// Zeroes counters; cache contents (tags) are preserved.
  void reset_stats() noexcept {
    l1i_.reset_stats();
    l1d_.reset_stats();
    l2_.reset_stats();
    memory_accesses_ = 0;
  }

  [[nodiscard]] Cache& l1d() noexcept { return l1d_; }
  [[nodiscard]] Cache& l1i() noexcept { return l1i_; }
  [[nodiscard]] Cache& l2() noexcept { return l2_; }
  [[nodiscard]] const Cache& l1d() const noexcept { return l1d_; }
  [[nodiscard]] const Cache& l1i() const noexcept { return l1i_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }

  void state_io(persist::Archive& ar);

 private:
  std::uint32_t access_through(Cache& l1, Addr addr, bool is_store, Cycle now);

  HierarchyConfig config_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  std::uint64_t memory_accesses_ = 0;
};

}  // namespace msim::mem
