// Function-unit pools with per-unit issue intervals (Table 1: some units,
// e.g. dividers, are not pipelined).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/opclass.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

struct FuStats {
  std::array<std::uint64_t, isa::kFuKindCount> issues{};
  std::array<std::uint64_t, isa::kFuKindCount> structural_rejects{};
};

class FuPools {
 public:
  FuPools() {
    for (unsigned k = 0; k < isa::kFuKindCount; ++k) {
      pools_[k].assign(isa::fu_pool_size(static_cast<isa::FuKind>(k)), 0);
    }
  }

  /// Reserves a unit for `op` issuing at `now`; returns false (without side
  /// effects) when every unit of the pool is busy.
  bool try_allocate(isa::OpClass op, Cycle now) {
    const auto kind = static_cast<std::size_t>(isa::fu_kind(op));
    for (Cycle& busy_until : pools_[kind]) {
      if (busy_until <= now) {
        busy_until = now + isa::op_timing(op).issue_interval;
        ++stats_.issues[kind];
        return true;
      }
    }
    ++stats_.structural_rejects[kind];
    return false;
  }

  /// Frees all units (watchdog flush).
  void clear() noexcept {
    for (auto& pool : pools_) {
      for (Cycle& busy_until : pool) busy_until = 0;
    }
  }

  [[nodiscard]] const FuStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FuStats{}; }

  void state_io(persist::Archive& ar);

 private:
  std::array<std::vector<Cycle>, isa::kFuKindCount> pools_;
  FuStats stats_;
};

}  // namespace msim::smt
