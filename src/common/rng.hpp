// Deterministic pseudo-random number generation for synthetic workloads.
//
// The whole simulator must be reproducible from a single 64-bit seed: a run
// with the same configuration produces bit-identical statistics.  We use
// xoshiro256** (Blackman & Vigna) rather than std::mt19937 because it is
// faster, has a tiny state, and -- unlike the standard distributions -- the
// derived distributions below are specified here and therefore identical
// across standard-library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/check.hpp"

namespace msim {

namespace persist {
class Archive;
}

/// xoshiro256** 1.0 generator with SplitMix64 seeding.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  /// Re-initializes the state from `seed`; equivalent to constructing anew.
  void reseed(std::uint64_t seed) noexcept;

  // The draw primitives below are defined inline: trace generation makes
  // several draws per synthesized instruction, and the out-of-line call
  // overhead dominated generator-bound profiles.  The arithmetic is
  // unchanged -- every sequence is bit-identical to the out-of-line
  // versions (golden digests pin this).

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) {
    MSIM_CHECK(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric sample: number of failures before the first success with
  /// per-trial success probability `p` in (0, 1].  Mean = (1-p)/p.
  std::uint64_t next_geometric(double p) {
    MSIM_CHECK(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 0;
    if (p != geom_p_) {
      geom_p_ = p;
      geom_log1p_ = std::log1p(-p);
    }
    const double u = 1.0 - next_double();  // in (0, 1]
    return static_cast<std::uint64_t>(std::floor(std::log(u) / geom_log1p_));
  }

  /// Samples an index from a discrete distribution given cumulative weights.
  /// `cumulative` must be non-empty and non-decreasing with a positive back().
  std::size_t next_index(std::span<const double> cumulative) {
    MSIM_CHECK(!cumulative.empty());
    const double total = cumulative.back();
    MSIM_CHECK(total > 0.0);
    const double u = next_double() * total;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (u < cumulative[i]) return i;
    }
    return cumulative.size() - 1;
  }

  /// Checkpoint support: serializes the four state words verbatim, so a
  /// restored generator continues the exact output sequence.
  void state_io(persist::Archive& ar);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  // One-entry memo for next_geometric's log1p(-p): callers draw with a
  // handful of fixed p values, and the libm call shows up in generator-bound
  // profiles.  Pure cache (same p -> bit-identical result), never serialized.
  double geom_p_ = -1.0;
  double geom_log1p_ = 0.0;
};

/// Builds the cumulative weight vector used by Rng::next_index from raw
/// (non-negative, not all zero) weights.
std::array<double, 8> cumulative_from_weights(std::span<const double> weights);

/// Derives an independent stream seed from a base seed, a textual tag and
/// two numeric salts.  Experiment sweeps use this to give every simulation
/// its own RNG stream that depends only on (base seed, identity of the run),
/// never on which host thread ran it or in what order — the keystone of the
/// parallel-equals-serial guarantee.  The derivation is order-sensitive and
/// well mixed (SplitMix64 finalizer over an FNV-1a digest of the tag).
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t base,
                                               std::string_view tag,
                                               std::uint64_t salt0 = 0,
                                               std::uint64_t salt1 = 0) noexcept;

}  // namespace msim
