// Streaming statistics used throughout the simulator and the experiment
// harness: counters, online mean/variance, bounded histograms, and the
// aggregate means (arithmetic / geometric / harmonic) the paper reports.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace msim {

namespace persist {
class Archive;
}

/// Online mean / variance / min / max accumulator (Welford's algorithm).
class StreamingStat {
 public:
  // Inline: called once per simulated cycle per sampled gauge, which makes
  // it one of the hottest functions in the whole simulator.
  void add(double x) noexcept {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Checkpoint support: doubles round-trip as raw IEEE-754 bit patterns,
  /// so a restored accumulator is bit-identical, not merely close.
  void state_io(persist::Archive& ar);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram over [0, bucket_count * bucket_width); values past
/// the end accumulate in the final overflow bucket.
class Histogram {
 public:
  Histogram(std::size_t bucket_count, double bucket_width);

  void add(double x, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }

  /// Weighted mean of bucket midpoints (overflow bucket uses its lower edge).
  [[nodiscard]] double approximate_mean() const noexcept;
  /// Smallest value v such that at least `q` (in [0,1]) of the mass is <= v,
  /// resolved to a bucket upper edge.
  [[nodiscard]] double approximate_quantile(double q) const noexcept;

  void state_io(persist::Archive& ar);

 private:
  std::vector<std::uint64_t> buckets_;
  double width_;
  std::uint64_t total_ = 0;
};

/// Ratio counter: events / opportunities (e.g. stall cycles / total cycles).
class RatioStat {
 public:
  void add(bool event) noexcept {
    ++opportunities_;
    if (event) ++events_;
  }
  void add_events(std::uint64_t events, std::uint64_t opportunities) noexcept {
    events_ += events;
    opportunities_ += opportunities;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t opportunities() const noexcept { return opportunities_; }
  [[nodiscard]] double value() const noexcept {
    return opportunities_ ? static_cast<double>(events_) / static_cast<double>(opportunities_)
                          : 0.0;
  }

  void state_io(persist::Archive& ar);

 private:
  std::uint64_t events_ = 0;
  std::uint64_t opportunities_ = 0;
};

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double arithmetic_mean(std::span<const double> xs) noexcept;

/// Geometric mean; requires all values > 0. 0 for an empty span.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Harmonic mean; requires all values > 0. 0 for an empty span.
/// This is the aggregate the paper uses across workload mixes.
[[nodiscard]] double harmonic_mean(std::span<const double> xs);

/// The paper's fairness metric: harmonic mean of per-thread weighted IPCs,
/// where weighted IPC_i = IPC_i(SMT) / IPC_i(alone).  Spans must be equal
/// length and `alone` strictly positive.
[[nodiscard]] double hmean_weighted_ipc(std::span<const double> smt_ipc,
                                        std::span<const double> alone_ipc);

}  // namespace msim
