// Hierarchical named-metric registry: the simulator's single source of
// machine-readable statistics.
//
// Components register their metrics once at construction under a dotted
// hierarchical name ("scheduler.dispatch.dab_inserts", "mem.l1d.miss_rate",
// "thread.0.stall.ndi_blocked_cycles").  Counters, gauges and ratios are
// registered as closures over the component's existing counters, so the
// per-cycle hot paths keep their plain increments; the registry reads them
// lazily at snapshot time.  Per-cycle *sampled* gauges (structure occupancy)
// are StreamingStats owned by the registry and fed by the pipeline's tick.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotonically increasing event count
  kGauge,      ///< instantaneous or derived scalar
  kRatio,      ///< events / opportunities with both terms preserved
  kSampled,    ///< per-cycle sampled distribution (mean/min/max/stddev)
  kHistogram,  ///< bucketed distribution with approximate quantiles
};

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind) noexcept;

/// One metric read out of the registry.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter / gauge value, ratio quotient, sampled or histogram mean.
  double value = 0.0;
  /// Ratio detail (kRatio only).
  std::uint64_t events = 0;
  std::uint64_t opportunities = 0;
  /// Distribution detail (kSampled / kHistogram).
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class StatRegistry {
 public:
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;

  StatRegistry() = default;
  StatRegistry(const StatRegistry&) = delete;
  StatRegistry& operator=(const StatRegistry&) = delete;

  /// Each name may be registered exactly once (MSIM_CHECK on duplicates).
  void counter(std::string name, CounterFn read);
  void gauge(std::string name, GaugeFn read);
  void ratio(std::string name, CounterFn events, CounterFn opportunities);
  /// The histogram must outlive the registry's snapshots.
  void histogram(std::string name, const Histogram* hist);
  /// Registers and returns a registry-owned per-cycle sampled gauge.  The
  /// returned reference is stable for the registry's lifetime.
  StreamingStat& sampled(std::string name);

  /// Zeroes every registry-owned sampled gauge (post-warm-up reset); the
  /// callback-backed metrics reset with their owning components.
  void reset_sampled() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// Reads every metric, sorted by name.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Snapshot of the single named metric; throws std::invalid_argument when
  /// the name is not registered.
  [[nodiscard]] MetricSnapshot read(std::string_view name) const;

  /// Checkpoint support for the registry-owned sampled gauges (the
  /// callback-backed metrics persist with their owning components).  Gauges
  /// are streamed tagged by name in registration order; a load verifies
  /// both, so metric renames or reorderings fail loudly.
  void sampled_io(persist::Archive& ar);

 private:
  struct Metric {
    std::string name;
    MetricKind kind;
    CounterFn read_counter;          // kCounter / kRatio events
    CounterFn read_opportunities;    // kRatio
    GaugeFn read_gauge;              // kGauge
    const Histogram* hist = nullptr; // kHistogram
    std::unique_ptr<StreamingStat> owned;  // kSampled
  };

  void add(Metric m);
  [[nodiscard]] MetricSnapshot snapshot_of(const Metric& m) const;

  std::vector<Metric> metrics_;
};

/// Emits a snapshot as a JSON object:
///   {"metric_count": N, "metrics": {"name": {"kind": ..., "value": ...}}}
void write_metrics_json(std::ostream& os, std::span<const MetricSnapshot> metrics,
                        int indent = 2);

/// Same content as write_metrics_json, but written as two key/value pairs
/// ("metric_count", "metrics") into an object the caller has already opened
/// on `w` — for embedding a snapshot inside a larger report.
void write_metrics_fields(JsonWriter& w, std::span<const MetricSnapshot> metrics);

}  // namespace msim::obs
