#include "mem/hierarchy.hpp"

#include <utility>

#include "common/archive.hpp"

namespace msim::mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2) {}

std::uint32_t MemoryHierarchy::access_through(Cache& l1, Addr addr, bool is_store,
                                              Cycle now) {
  const Cache::AccessResult r1 = l1.access(addr, is_store, now);
  if (r1.hit) return r1.extra_latency;

  // L1 miss: the L2 access begins once an L1 MSHR is available.
  const Cycle l2_start = r1.miss_start;
  const Cache::AccessResult r2 = l2_.access(addr, is_store, l2_start);
  Cycle fill_time;
  if (r2.hit) {
    fill_time = l2_start + r2.extra_latency;
  } else {
    ++memory_accesses_;
    fill_time = r2.miss_start + config_.l2.hit_extra + config_.memory_latency;
    l2_.fill(addr, is_store, l2_start, fill_time);
  }
  l1.fill(addr, is_store, now, fill_time);
  return static_cast<std::uint32_t>(fill_time - now);
}

HierarchyStats MemoryHierarchy::stats() const {
  return {.l1i = l1i_.stats(),
          .l1d = l1d_.stats(),
          .l2 = l2_.stats(),
          .memory_accesses = memory_accesses_};
}

void MemoryHierarchy::append_metrics(std::vector<obs::MetricSnapshot>& out,
                                     const std::string& prefix) const {
  for (const auto& [cache, name] : {std::pair{&l1i_, "l1i."}, std::pair{&l1d_, "l1d."},
                                    std::pair{&l2_, "l2."}}) {
    const CacheStats& s = cache->stats();
    const std::string p = prefix + name;
    obs::append_counter(out, p + "accesses", s.accesses);
    obs::append_counter(out, p + "misses", s.misses);
    obs::append_ratio(out, p + "miss_rate", s.misses, s.accesses);
    obs::append_counter(out, p + "coalesced_misses", s.coalesced_misses);
    obs::append_counter(out, p + "mshr_stall_cycles", s.mshr_stall_cycles);
    obs::append_counter(out, p + "dirty_evictions", s.dirty_evictions);
  }
  obs::append_counter(out, prefix + "memory_accesses", memory_accesses_);
}

void MemoryHierarchy::state_io(persist::Archive& ar) {
  ar.section("mem-hierarchy");
  for (Cache* c : {&l1i_, &l1d_, &l2_}) c->state_io(ar);
  ar.io(memory_accesses_);
}

}  // namespace msim::mem
