// Named metrics: the simulator's single source of machine-readable
// statistics.
//
// A snapshot is built when one is asked for: each component appends its
// metrics under a dotted hierarchical name ("scheduler.dispatch.dab_inserts",
// "mem.l1d.miss_rate", "thread.0.stall.ndi_blocked_cycles"), read straight
// from the counters its per-cycle hot paths increment.  Per-cycle *sampled*
// gauges (structure occupancy) are StreamingStats the pipeline feeds each
// tick.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace msim::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotonically increasing event count
  kGauge,      ///< instantaneous or derived scalar
  kRatio,      ///< events / opportunities with both terms preserved
  kSampled,    ///< per-cycle sampled distribution (mean/min/max/stddev)
  kHistogram,  ///< bucketed distribution with approximate quantiles
};

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind) noexcept;

/// One metric of a snapshot.
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

// Each appends one metric named `name` to `out`.
void append_counter(std::vector<MetricSnapshot>& out, std::string name,
                    std::uint64_t value);
void append_gauge(std::vector<MetricSnapshot>& out, std::string name, double value);
/// The value is events / opportunities, or 0 without opportunities.
void append_ratio(std::vector<MetricSnapshot>& out, std::string name,
                  std::uint64_t events, std::uint64_t opportunities);
void append_sampled(std::vector<MetricSnapshot>& out, std::string name,
                    const StreamingStat& stat);
void append_histogram(std::vector<MetricSnapshot>& out, std::string name,
                      const Histogram& hist);

/// Sorts a snapshot by name.  Every name must be non-empty and appear once
/// (MSIM_CHECK).
void sort_metrics(std::vector<MetricSnapshot>& metrics);

/// Emits a snapshot as a JSON object:
///   {"metric_count": N, "metrics": {"name": {"kind": ..., "value": ...}}}
void write_metrics_json(std::ostream& os, std::span<const MetricSnapshot> metrics,
                        int indent = 2);

/// Same content as write_metrics_json, but written as two key/value pairs
/// ("metric_count", "metrics") into an object the caller has already opened
/// on `w` — for embedding a snapshot inside a larger report.
void write_metrics_fields(JsonWriter& w, std::span<const MetricSnapshot> metrics);

}  // namespace msim::obs
