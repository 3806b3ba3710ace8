#include "obs/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"

namespace msim::obs {

std::string_view metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:   return "counter";
    case MetricKind::kGauge:     return "gauge";
    case MetricKind::kRatio:     return "ratio";
    case MetricKind::kSampled:   return "sampled";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void append_counter(std::vector<MetricSnapshot>& out, std::string name,
                    std::uint64_t value) {
  out.push_back({.name = std::move(name),
                 .kind = MetricKind::kCounter,
                 .value = static_cast<double>(value),
                 .count = value});
}

void append_gauge(std::vector<MetricSnapshot>& out, std::string name, double value) {
  out.push_back({.name = std::move(name), .kind = MetricKind::kGauge, .value = value});
}

void append_ratio(std::vector<MetricSnapshot>& out, std::string name,
                  std::uint64_t events, std::uint64_t opportunities) {
  out.push_back({.name = std::move(name),
                 .kind = MetricKind::kRatio,
                 .value = opportunities != 0 ? static_cast<double>(events) /
                                                   static_cast<double>(opportunities)
                                             : 0.0,
                 .events = events,
                 .opportunities = opportunities});
}

void append_sampled(std::vector<MetricSnapshot>& out, std::string name,
                    const StreamingStat& stat) {
  out.push_back({.name = std::move(name),
                 .kind = MetricKind::kSampled,
                 .value = stat.mean(),
                 .count = stat.count(),
                 .min = stat.min(),
                 .max = stat.max(),
                 .stddev = stat.stddev()});
}

void append_histogram(std::vector<MetricSnapshot>& out, std::string name,
                      const Histogram& hist) {
  out.push_back({.name = std::move(name),
                 .kind = MetricKind::kHistogram,
                 .value = hist.approximate_mean(),
                 .count = hist.total(),
                 .p50 = hist.approximate_quantile(0.50),
                 .p90 = hist.approximate_quantile(0.90),
                 .p99 = hist.approximate_quantile(0.99)});
}

void sort_metrics(std::vector<MetricSnapshot>& metrics) {
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    MSIM_CHECK(!metrics[i].name.empty());
    MSIM_CHECK(i == 0 || metrics[i - 1].name != metrics[i].name);  // duplicate name
  }
}

void write_metrics_json(std::ostream& os, std::span<const MetricSnapshot> metrics,
                        int indent) {
  JsonWriter w(os, indent);
  w.begin_object();
  write_metrics_fields(w, metrics);
  w.end_object();
  os << '\n';
}

void write_metrics_fields(JsonWriter& w, std::span<const MetricSnapshot> metrics) {
  w.kv("metric_count", static_cast<std::uint64_t>(metrics.size()));
  w.key("metrics");
  w.begin_object();
  for (const MetricSnapshot& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("kind", metric_kind_name(m.kind));
    w.kv("value", m.value);
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        break;
      case MetricKind::kRatio:
        w.kv("events", m.events);
        w.kv("opportunities", m.opportunities);
        break;
      case MetricKind::kSampled:
        w.kv("count", m.count);
        w.kv("min", m.min);
        w.kv("max", m.max);
        w.kv("stddev", m.stddev);
        break;
      case MetricKind::kHistogram:
        w.kv("count", m.count);
        w.kv("p50", m.p50);
        w.kv("p90", m.p90);
        w.kv("p99", m.p99);
        break;
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace msim::obs
