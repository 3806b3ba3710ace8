#include "common/rng.hpp"

#include <cmath>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"

namespace msim {
namespace {

// SplitMix64: expands one 64-bit seed into a well-mixed stream used only
// for state initialization.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t derive_stream_seed(std::uint64_t base, std::string_view tag,
                                 std::uint64_t salt0, std::uint64_t salt1) noexcept {
  // FNV-1a over the tag bytes, then fold each ingredient through the
  // SplitMix64 finalizer so nearby inputs land far apart.
  Fnv1a digest;
  digest.bytes(tag);
  std::uint64_t state = base;
  for (const std::uint64_t ingredient : {digest.h, salt0, salt1}) {
    state ^= ingredient;
    state = splitmix64(state);
  }
  return state;
}

void Rng::state_io(persist::Archive& ar) {
  ar.section("rng");
  for (auto& word : s_) ar.io(word);
}

std::array<double, 8> cumulative_from_weights(std::span<const double> weights) {
  MSIM_CHECK(!weights.empty() && weights.size() <= 8);
  std::array<double, 8> cum{};
  double running = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    MSIM_CHECK(weights[i] >= 0.0);
    running += weights[i];
    cum[i] = running;
  }
  MSIM_CHECK(running > 0.0);
  // Pad the tail so a full 8-wide span is still valid to sample from.
  for (std::size_t i = weights.size(); i < 8; ++i) {
    cum[i] = running;
  }
  return cum;
}

}  // namespace msim
