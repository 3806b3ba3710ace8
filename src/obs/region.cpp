#include "obs/region.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace msim::obs {

namespace {

/// Quantizes a rate in [0, ~16) to 1/16 steps, saturating at 255 -- the
/// same grain the interval engine uses for phase fingerprints.
std::uint64_t q16(double x) {
  if (!(x > 0.0)) return 0;
  const double q = std::nearbyint(x * 16.0);
  return q >= 255.0 ? 255 : static_cast<std::uint64_t>(q);
}

/// Quantizes misses-per-kilo-instruction to 16-MPKI steps, saturating at
/// 255 (>= 4080 MPKI, far beyond anything the traces produce).  The step
/// is deliberately coarser than the Poisson noise of a few-thousand-
/// instruction region (sigma ~4 MPKI at the traces' miss rates), so
/// statistically stationary regions collapse into one cluster instead of
/// one cluster per noise realization.
std::uint64_t q_mpki(std::uint64_t misses, std::uint64_t instructions) {
  if (instructions == 0) return 0;
  const double mpki =
      1000.0 * static_cast<double>(misses) / static_cast<double>(instructions);
  const double q = std::nearbyint(mpki / 16.0);
  return q >= 255.0 ? 255 : static_cast<std::uint64_t>(q);
}

}  // namespace

std::uint64_t region_fingerprint(const RegionProfile& profile) {
  Fnv1a f;
  const auto mix = [&f](std::uint64_t v) { f.byte(static_cast<std::uint8_t>(v)); };
  for (const RegionThreadProfile& t : profile.threads) {
    const double insts = t.instructions ? static_cast<double>(t.instructions) : 1.0;
    mix(q16(static_cast<double>(t.branches) / insts));
    mix(t.branches ? q16(static_cast<double>(t.mispredicts) /
                         static_cast<double>(t.branches))
                   : 0);
    mix(q16(static_cast<double>(t.loads) / insts));
    mix(q16(static_cast<double>(t.stores) / insts));
  }
  const std::uint64_t total = profile.total_instructions();
  mix(q_mpki(profile.l1i_misses, total));
  mix(q_mpki(profile.l1d_misses, total));
  mix(q_mpki(profile.l2_misses, total));
  return f.h;
}

std::vector<std::uint64_t> region_features(const RegionProfile& profile) {
  std::vector<std::uint64_t> f;
  f.reserve(3 * profile.threads.size() + 4);
  std::uint64_t mispredicts = 0;
  for (const RegionThreadProfile& t : profile.threads) {
    const std::uint64_t insts = std::max<std::uint64_t>(t.instructions, 1);
    f.push_back(1000 * t.branches / insts);
    f.push_back(1000 * t.loads / insts);
    f.push_back(1000 * t.stores / insts);
    mispredicts += t.mispredicts;
  }
  const std::uint64_t total = std::max<std::uint64_t>(profile.total_instructions(), 1);
  // Mispredicts enter globally, per kilo-instruction, not as a per-thread
  // rate: a thread pacing far behind the leader contributes only a few
  // hundred branches per region, and the per-thread ratio is then almost
  // pure noise -- it fragmented stationary runs into dozens of clusters.
  f.push_back(1'000'000 * mispredicts / total);
  f.push_back(1'000'000 * profile.l1i_misses / total);
  f.push_back(1'000'000 * profile.l1d_misses / total);
  f.push_back(1'000'000 * profile.l2_misses / total);
  return f;
}

std::uint64_t RegionClusters::tolerance_of(std::size_t index,
                                           std::uint64_t reference) const {
  return index < rate_count_
             ? tol_.rate_atol
             : tol_.mpki_atol + reference / tol_.mpki_rtol_div;
}

bool RegionClusters::matches(const std::vector<std::uint64_t>& leader,
                             const std::vector<std::uint64_t>& features) const {
  for (std::size_t i = 0; i < leader.size(); ++i) {
    const std::uint64_t delta = leader[i] > features[i] ? leader[i] - features[i]
                                                        : features[i] - leader[i];
    if (delta > tolerance_of(i, leader[i])) return false;
  }
  return true;
}

std::size_t RegionClusters::assign(const RegionProfile& profile) {
  std::vector<std::uint64_t> features = region_features(profile);
  if (features_.empty()) rate_count_ = 3 * profile.threads.size();
  std::size_t cluster = leaders_.size();
  for (std::size_t i = 0; i < leaders_.size(); ++i) {
    if (leaders_[i].size() == features.size() && matches(leaders_[i], features)) {
      cluster = i;
      break;
    }
  }
  if (cluster == leaders_.size()) leaders_.push_back(features);
  features_.push_back(std::move(features));
  clusters_.push_back(cluster);
  return cluster;
}

std::size_t RegionClusters::medoid(
    std::size_t cluster, const std::vector<std::uint64_t>& candidates) const {
  // Centroid over the candidates (element-wise mean, rounded down).
  std::vector<std::uint64_t> centroid;
  std::size_t count = 0;
  for (const std::uint64_t r : candidates) {
    if (clusters_.at(r) != cluster) continue;
    const std::vector<std::uint64_t>& f = features_[r];
    if (centroid.empty()) centroid.assign(f.size(), 0);
    for (std::size_t i = 0; i < f.size(); ++i) centroid[i] += f[i];
    ++count;
  }
  MSIM_CHECK(count > 0);
  for (std::uint64_t& c : centroid) c /= count;

  // Closest candidate in tolerance-normalized L1 distance, so a per-mille
  // rate step and an MPKI step weigh comparably.
  std::size_t best = candidates.front();
  std::uint64_t best_distance = ~std::uint64_t{0};
  for (const std::uint64_t r : candidates) {
    if (clusters_.at(r) != cluster) continue;
    const std::vector<std::uint64_t>& f = features_[r];
    std::uint64_t distance = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const std::uint64_t delta =
          f[i] > centroid[i] ? f[i] - centroid[i] : centroid[i] - f[i];
      distance += 1000 * delta / tolerance_of(i, centroid[i]);
    }
    if (distance < best_distance) {
      best_distance = distance;
      best = static_cast<std::size_t>(r);
    }
  }
  return best;
}

}  // namespace msim::obs
