// Deterministic exponential backoff for worker respawns.
//
// When the sweep supervisor loses a worker process (SIGKILL, SIGSEGV, a
// missed-heartbeat hang, a cell wall-clock timeout) it respawns the slot
// after a delay that grows exponentially with that slot's death count and
// carries a *deterministic* jitter: the jitter is a pure hash of
// (slot, death count), never a wall-clock or random draw, so a chaos test
// replays the exact same respawn schedule every run and two slots that die
// in the same cycle do not thundering-herd their respawns.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/hash.hpp"

namespace msim::robust {

struct BackoffPolicy {
  /// Delay before the first respawn (death count 1).
  std::uint64_t base_ms = 50;
  /// Upper bound on any computed delay, jitter included.
  std::uint64_t max_ms = 5'000;
  /// Deterministic jitter amplitude as a fraction of the exponential delay,
  /// in percent (0 = pure exponential).
  std::uint32_t jitter_pct = 25;

  /// Delay in milliseconds before respawn number `deaths` (1-based) of
  /// worker slot `slot`.  Pure: same inputs, same answer, on any host.
  [[nodiscard]] std::uint64_t delay_ms(unsigned slot, unsigned deaths) const {
    if (deaths == 0) return 0;
    // base * 2^(deaths-1), saturating well below overflow.
    const unsigned shift = std::min(deaths - 1, 32u);
    std::uint64_t delay = base_ms;
    if (shift >= 64 || (delay << shift) >> shift != delay) {
      delay = max_ms;
    } else {
      delay <<= shift;
    }
    delay = std::min(delay, max_ms);
    if (jitter_pct != 0 && delay != 0) {
      // FNV-1a over (slot, deaths): stable across platforms.
      Fnv1a f;
      f.u64(slot);
      f.u64(deaths);
      const std::uint64_t amplitude = delay * jitter_pct / 100;
      if (amplitude != 0) delay += f.h % (amplitude + 1);
    }
    return std::min(delay, max_ms);
  }
};

}  // namespace msim::robust
