// gshare direction predictor: 2-bit saturating counters indexed by
// PC xor global-history (Table 1: per-thread 2K-entry, 10-bit history).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::bpred {

struct GshareConfig {
  std::uint32_t table_entries = 2048;  ///< must be a power of two
  std::uint32_t history_bits = 10;
};

struct DirectionStats {
  std::uint64_t lookups = 0;
  std::uint64_t correct = 0;

  [[nodiscard]] double accuracy() const noexcept {
    return lookups ? static_cast<double>(correct) / static_cast<double>(lookups) : 0.0;
  }
};

class Gshare {
 public:
  explicit Gshare(const GshareConfig& config = {});

  /// Predicted direction for the branch at `pc` given current history.
  [[nodiscard]] bool predict(Addr pc) const noexcept;

  /// Trains the counter and shifts `taken` into the global history.
  /// Returns whether the prediction made with the pre-update state was
  /// correct (convenience for stats).
  bool update(Addr pc, bool taken) noexcept;

  [[nodiscard]] const DirectionStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] std::uint32_t history() const noexcept { return history_; }

  void state_io(persist::Archive& ar);

 private:
  [[nodiscard]] std::size_t index(Addr pc) const noexcept;

  GshareConfig config_;
  std::vector<std::uint8_t> counters_;  ///< 2-bit, initialized weakly taken
  std::uint32_t history_ = 0;
  std::uint32_t history_mask_;
  DirectionStats stats_;
};

}  // namespace msim::bpred
