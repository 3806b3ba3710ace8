#include "mem/hierarchy.hpp"

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

void MemoryHierarchy::register_stats(obs::StatRegistry& registry,
                                     const std::string& prefix) const {
  const auto level = [&registry, &prefix](const Cache& cache, std::string_view name) {
    const CacheStats* s = &cache.stats();
    const std::string p = prefix + std::string(name) + ".";
    registry.counter(p + "accesses", [s] { return s->accesses; });
    registry.counter(p + "misses", [s] { return s->misses; });
    registry.ratio(p + "miss_rate", [s] { return s->misses; },
                   [s] { return s->accesses; });
    registry.counter(p + "coalesced_misses", [s] { return s->coalesced_misses; });
    registry.counter(p + "mshr_stall_cycles", [s] { return s->mshr_stall_cycles; });
    registry.counter(p + "dirty_evictions", [s] { return s->dirty_evictions; });
  };
  level(l1i_, "l1i");
  level(l1d_, "l1d");
  level(l2_, "l2");
  const std::uint64_t* mem_accesses = &memory_accesses_;
  registry.counter(prefix + "memory_accesses",
                   [mem_accesses] { return *mem_accesses; });
}

void MemoryHierarchy::state_io(persist::Archive& ar) {
  ar.section("mem-hierarchy");
  for (Cache* c : {&l1i_, &l1d_, &l2_}) c->state_io(ar);
  ar.io(memory_accesses_);
}

}  // namespace msim::mem
