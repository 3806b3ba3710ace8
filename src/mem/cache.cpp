#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::mem {

Cache::Cache(const CacheConfig& config) : config_(config), set_count_(config.set_count()) {
  MSIM_CHECK(config_.assoc > 0 && config_.line_bytes > 0);
  MSIM_CHECK(config_.size_bytes % (static_cast<std::uint64_t>(config_.assoc) * config_.line_bytes) == 0);
  MSIM_CHECK(set_count_ > 0);
  MSIM_CHECK(config_.mshr_count > 0);
  MSIM_CHECK((config_.line_bytes & (config_.line_bytes - 1)) == 0);
  MSIM_CHECK((set_count_ & (set_count_ - 1)) == 0);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_mask_ = set_count_ - 1;
  lines_.resize(static_cast<std::size_t>(set_count_) * config_.assoc);
}

void Cache::prune_outstanding(Cycle now) {
  if (min_fill_ > now) return;  // nothing has completed yet
  std::erase_if(outstanding_, [now](const auto& miss) { return miss.second <= now; });
  min_fill_ = kCycleNever;
  for (const auto& miss : outstanding_) min_fill_ = std::min(min_fill_, miss.second);
}

Cache::AccessResult Cache::access(Addr addr, bool is_store, Cycle now) {
  ++stats_.accesses;
  const Addr laddr = line_addr(addr);
  const std::uint32_t set = set_index(laddr);
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == laddr) {
      line.last_used = now;
      line.dirty = line.dirty || is_store;
      // The tag may belong to a line whose fill is still in flight; such
      // accesses wait for the fill to complete (miss coalescing).
      std::uint32_t wait = 0;
      if (!outstanding_.empty()) {
        if (const auto* miss = find_outstanding(laddr);
            miss != nullptr && miss->second > now) {
          wait = static_cast<std::uint32_t>(miss->second - now);
          ++stats_.coalesced_misses;
        }
      }
      return {.hit = true, .extra_latency = config_.hit_extra + wait, .miss_start = now};
    }
  }
  ++stats_.misses;
  prune_outstanding(now);

  // Coalesce with an in-flight miss to the same line.
  if (const auto* miss = find_outstanding(laddr); miss != nullptr) {
    ++stats_.coalesced_misses;
    const auto wait = static_cast<std::uint32_t>(miss->second - now);
    return {.hit = true, .extra_latency = config_.hit_extra + wait, .miss_start = now};
  }

  // MSHR saturation delays the start of the next-level access until the
  // earliest outstanding miss completes.
  Cycle miss_start = now;
  if (outstanding_.size() >= config_.mshr_count) {
    // All entries survived the prune above, so min_fill_ is exact.
    miss_start = min_fill_;
    stats_.mshr_stall_cycles += miss_start - now;
  }
  return {.hit = false, .extra_latency = config_.hit_extra, .miss_start = miss_start};
}

void Cache::fill(Addr addr, bool is_store, Cycle now, Cycle fill_time) {
  const Addr laddr = line_addr(addr);
  const std::uint32_t set = set_index(laddr);
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];

  // Victim selection: first invalid way, else true-LRU by last_used.
  Line* victim = base;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.last_used < victim->last_used) victim = &line;
  }
  if (victim->valid && victim->dirty) ++stats_.dirty_evictions;

  victim->valid = true;
  victim->tag = laddr;
  victim->last_used = fill_time;
  victim->dirty = is_store;

  prune_outstanding(now);
  // Mirrors map::emplace semantics: never create a duplicate entry for a
  // line (cannot happen today -- a line with an in-flight fill coalesces
  // at access() and is not re-filled -- but stay defensive).
  if (fill_time > now && find_outstanding(laddr) == nullptr) {
    outstanding_.emplace_back(laddr, fill_time);
    min_fill_ = std::min(min_fill_, fill_time);
  }
}

bool Cache::probe(Addr addr) const noexcept {
  const Addr laddr = line_addr(addr);
  const std::uint32_t set = set_index(laddr);
  const Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (base[w].valid && base[w].tag == laddr) return true;
  }
  return false;
}

std::vector<Addr> Cache::resident_lines() const {
  std::vector<Addr> out;
  out.reserve(lines_.size());
  for (const Line& line : lines_) {
    if (line.valid) out.push_back(line.tag);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Cache::state_io(persist::Archive& ar) {
  ar.section("cache");
  ar.io_sequence(lines_, [](persist::Archive& a, Line& l) {
    a.io(l.tag);
    a.io(l.last_used);
    a.io(l.valid);
    a.io(l.dirty);
  });
  ar.io_sequence(outstanding_, [](persist::Archive& a, std::pair<Addr, Cycle>& m) {
    a.io(m.first);
    a.io(m.second);
  });
  // min_fill_ is derived from outstanding_, not part of the format.
  min_fill_ = kCycleNever;
  for (const auto& miss : outstanding_) min_fill_ = std::min(min_fill_, miss.second);
  io_cache_stats(ar, stats_);
}

void io_cache_stats(persist::Archive& ar, CacheStats& s) {
  ar.io(s.accesses);
  ar.io(s.misses);
  ar.io(s.coalesced_misses);
  ar.io(s.mshr_stall_cycles);
  ar.io(s.dirty_evictions);
}

}  // namespace msim::mem
