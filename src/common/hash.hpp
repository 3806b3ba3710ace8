// 64-bit FNV-1a, the one hash behind every stable digest in the simulator:
// commit digests, config and sweep fingerprints, stream seeds, interval
// phase and region fingerprints, and backoff jitter.  Wider values are
// folded one byte at a time, least significant byte first, so a digest is
// the same on every host (the byte order is part of each digest's
// contract: golden digests and checkpoints pin it).
#pragma once

#include <cstdint>
#include <string_view>

namespace msim {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;  ///< the FNV-1a offset basis

  constexpr void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  /// The 8 bytes of `v`, least significant first.
  constexpr void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  constexpr void bytes(std::string_view s) noexcept {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace msim
