#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim {

double StreamingStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStat::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(std::size_t bucket_count, double bucket_width)
    : buckets_(bucket_count, 0), width_(bucket_width) {
  MSIM_CHECK(bucket_count > 0 && bucket_width > 0.0);
}

void Histogram::add(double x, std::uint64_t weight) noexcept {
  std::size_t idx = 0;
  if (x > 0.0) {
    idx = static_cast<std::size_t>(x / width_);
    idx = std::min(idx, buckets_.size() - 1);
  }
  buckets_[idx] += weight;
  total_ += weight;
}

double Histogram::approximate_mean() const noexcept {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const bool overflow = (i == buckets_.size() - 1);
    const double rep = overflow ? static_cast<double>(i) * width_
                                : (static_cast<double>(i) + 0.5) * width_;
    acc += rep * static_cast<double>(buckets_[i]);
  }
  return acc / static_cast<double>(total_);
}

double Histogram::approximate_quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<double>(total_) * q;
  double running = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    running += static_cast<double>(buckets_[i]);
    if (running >= target) {
      return (static_cast<double>(i) + 1.0) * width_;
    }
  }
  return static_cast<double>(buckets_.size()) * width_;
}

double arithmetic_mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_acc = 0.0;
  for (double x : xs) {
    MSIM_CHECK(x > 0.0);
    log_acc += std::log(x);
  }
  return std::exp(log_acc / static_cast<double>(xs.size()));
}

double harmonic_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double inv_acc = 0.0;
  for (double x : xs) {
    MSIM_CHECK(x > 0.0);
    inv_acc += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / inv_acc;
}

double hmean_weighted_ipc(std::span<const double> smt_ipc,
                          std::span<const double> alone_ipc) {
  MSIM_CHECK(smt_ipc.size() == alone_ipc.size() && !smt_ipc.empty());
  double inv_acc = 0.0;
  for (std::size_t i = 0; i < smt_ipc.size(); ++i) {
    MSIM_CHECK(alone_ipc[i] > 0.0);
    const double weighted = smt_ipc[i] / alone_ipc[i];
    MSIM_CHECK(weighted > 0.0);
    inv_acc += 1.0 / weighted;
  }
  return static_cast<double>(smt_ipc.size()) / inv_acc;
}

void StreamingStat::state_io(persist::Archive& ar) {
  ar.section("streaming-stat");
  ar.io(n_);
  ar.io(mean_);
  ar.io(m2_);
  ar.io(sum_);
  ar.io(min_);
  ar.io(max_);
}

void Histogram::state_io(persist::Archive& ar) {
  ar.section("histogram");
  // Geometry (bucket count, width) is construction-time configuration; it
  // is serialized anyway so a mismatched load fails loudly instead of
  // rebinning counts.
  std::uint64_t buckets = buckets_.size();
  double width = width_;
  ar.io(buckets);
  ar.io(width);
  if (!ar.saving() && (buckets != buckets_.size() || width != width_)) {
    throw persist::PersistError("checkpoint: histogram geometry mismatch");
  }
  ar.io(buckets_);
  ar.io(total_);
}

void RatioStat::state_io(persist::Archive& ar) {
  ar.section("ratio-stat");
  ar.io(events_);
  ar.io(opportunities_);
}

}  // namespace msim
