#include "obs/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/archive.hpp"
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

void StatRegistry::add(Metric m) {
  MSIM_CHECK(!m.name.empty());
  for (const Metric& existing : metrics_) {
    MSIM_CHECK(existing.name != m.name);  // duplicate metric registration
  }
  metrics_.push_back(std::move(m));
}

void StatRegistry::counter(std::string name, CounterFn read) {
  MSIM_CHECK(static_cast<bool>(read));
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::kCounter;
  m.read_counter = std::move(read);
  add(std::move(m));
}

void StatRegistry::gauge(std::string name, GaugeFn read) {
  MSIM_CHECK(static_cast<bool>(read));
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::kGauge;
  m.read_gauge = std::move(read);
  add(std::move(m));
}

void StatRegistry::ratio(std::string name, CounterFn events, CounterFn opportunities) {
  MSIM_CHECK(static_cast<bool>(events) && static_cast<bool>(opportunities));
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::kRatio;
  m.read_counter = std::move(events);
  m.read_opportunities = std::move(opportunities);
  add(std::move(m));
}

void StatRegistry::histogram(std::string name, const Histogram* hist) {
  MSIM_CHECK(hist != nullptr);
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::kHistogram;
  m.hist = hist;
  add(std::move(m));
}

StreamingStat& StatRegistry::sampled(std::string name) {
  Metric m;
  m.name = std::move(name);
  m.kind = MetricKind::kSampled;
  m.owned = std::make_unique<StreamingStat>();
  StreamingStat& ref = *m.owned;
  add(std::move(m));
  return ref;
}

void StatRegistry::reset_sampled() noexcept {
  for (Metric& m : metrics_) {
    if (m.owned) *m.owned = StreamingStat{};
  }
}

MetricSnapshot StatRegistry::snapshot_of(const Metric& m) const {
  MetricSnapshot s;
  s.name = m.name;
  s.kind = m.kind;
  switch (m.kind) {
    case MetricKind::kCounter:
      s.count = m.read_counter();
      s.value = static_cast<double>(s.count);
      break;
    case MetricKind::kGauge:
      s.value = m.read_gauge();
      break;
    case MetricKind::kRatio: {
      s.events = m.read_counter();
      s.opportunities = m.read_opportunities();
      s.value = s.opportunities != 0 ? static_cast<double>(s.events) /
                                           static_cast<double>(s.opportunities)
                                     : 0.0;
      break;
    }
    case MetricKind::kSampled: {
      const StreamingStat& st = *m.owned;
      s.value = st.mean();
      s.count = st.count();
      s.min = st.min();
      s.max = st.max();
      s.stddev = st.stddev();
      break;
    }
    case MetricKind::kHistogram: {
      s.value = m.hist->approximate_mean();
      s.count = m.hist->total();
      s.p50 = m.hist->approximate_quantile(0.50);
      s.p90 = m.hist->approximate_quantile(0.90);
      s.p99 = m.hist->approximate_quantile(0.99);
      break;
    }
  }
  return s;
}

std::vector<MetricSnapshot> StatRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const Metric& m : metrics_) out.push_back(snapshot_of(m));
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

MetricSnapshot StatRegistry::read(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return snapshot_of(m);
  }
  throw std::invalid_argument("no metric named '" + std::string(name) + "'");
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

void StatRegistry::sampled_io(persist::Archive& ar) {
  ar.section("stat-registry");
  std::uint64_t sampled_count = 0;
  for (const Metric& m : metrics_) {
    if (m.kind == MetricKind::kSampled) ++sampled_count;
  }
  const std::uint64_t expected = sampled_count;
  ar.io(sampled_count);
  if (!ar.saving() && sampled_count != expected) {
    throw persist::PersistError(
        "checkpoint: sampled-gauge count mismatch (" +
        std::to_string(sampled_count) + " in stream, " +
        std::to_string(expected) + " registered)");
  }
  for (Metric& m : metrics_) {
    if (m.kind != MetricKind::kSampled) continue;
    std::string name = m.name;
    ar.io(name);
    if (!ar.saving() && name != m.name) {
      throw persist::PersistError("checkpoint: sampled gauge '" + m.name +
                                  "' does not match stream entry '" + name +
                                  "' (metric renamed or reordered)");
    }
    m.owned->state_io(ar);
  }
}

}  // namespace msim::obs
