#include "sim/report.hpp"

#include <string>

#include "common/json.hpp"
#include "obs/registry.hpp"

namespace msim::sim {

double metric_value(const SweepCell& cell, FigureMetric metric) {
  switch (metric) {
    case FigureMetric::kIpcSpeedup:       return cell.ipc_speedup_vs_trad;
    case FigureMetric::kFairnessGain:     return cell.fairness_gain_vs_trad;
    case FigureMetric::kThroughputIpc:    return cell.hmean_ipc;
    case FigureMetric::kAllStallFraction: return cell.mean_all_stall_fraction;
    case FigureMetric::kIqResidency:      return cell.mean_iq_residency;
  }
  return 0.0;
}

TextTable figure_table(const std::vector<SweepCell>& cells,
                       std::span<const core::SchedulerKind> kinds,
                       std::span<const std::uint32_t> iq_sizes,
                       FigureMetric metric) {
  const bool percent = metric == FigureMetric::kIpcSpeedup ||
                       metric == FigureMetric::kFairnessGain;
  std::vector<std::string> headers{"iq_entries"};
  for (const core::SchedulerKind kind : kinds) {
    headers.emplace_back(core::scheduler_kind_name(kind));
  }
  TextTable table(std::move(headers));
  for (const std::uint32_t iq : iq_sizes) {
    table.begin_row();
    table.add_cell(std::uint64_t{iq});
    for (const core::SchedulerKind kind : kinds) {
      const double value = metric_value(cell_for(cells, kind, iq), metric);
      if (percent) {
        table.add_cell(format_percent(value - 1.0));
      } else {
        table.add_cell(value, 3);
      }
    }
  }
  return table;
}

void write_run_json(std::ostream& os, const RunConfig& config,
                    const RunResult& result, int indent) {
  JsonWriter w(os, indent);
  w.begin_object();

  w.key("config");
  w.begin_object();
  w.key("benchmarks");
  w.begin_array();
  for (const std::string& b : config.benchmarks) w.value(b);
  w.end_array();
  w.kv("scheduler", core::scheduler_kind_name(config.kind));
  w.kv("iq_entries", config.iq_entries);
  w.kv("deadlock", core::deadlock_mode_name(config.deadlock));
  w.kv("scan_depth", config.scan_depth);
  w.kv("dab_exclusive", config.dab_exclusive);
  w.kv("watchdog_timeout", config.watchdog_timeout);
  w.kv("oracle_disambiguation", config.oracle_disambiguation);
  w.kv("fetch_policy", smt::fetch_policy_name(config.fetch_policy));
  w.kv("model_wrong_path", config.model_wrong_path);
  w.kv("seed", config.seed);
  w.kv("warmup", config.warmup);
  w.kv("horizon", config.horizon);
  w.kv("max_cycles", config.max_cycles);
  w.kv("trace_capacity", static_cast<std::uint64_t>(config.trace_capacity));
  w.kv("verify", config.verify);
  w.kv("hang_cycles", config.hang_cycles);
  w.kv("fault_injection", config.faults != nullptr);
  w.end_object();

  w.kv("cycles", result.cycles);
  w.kv("throughput_ipc", result.throughput_ipc);
  w.kv("truncated", result.truncated);
  w.kv("commit_digest", hex_u64(result.commit_digest));
  w.key("per_thread_ipc");
  w.begin_array();
  for (const double v : result.per_thread_ipc) w.value(v);
  w.end_array();
  w.key("per_thread_committed");
  w.begin_array();
  for (const std::uint64_t v : result.per_thread_committed) w.value(v);
  w.end_array();
  if (!result.trace.empty() || result.trace_dropped != 0) {
    w.kv("trace_events", static_cast<std::uint64_t>(result.trace.size()));
    w.kv("trace_dropped", result.trace_dropped);
  }
  obs::write_metrics_fields(w, result.metrics);
  w.end_object();
  os << '\n';
}

void write_sweep_json(std::ostream& os, const std::vector<SweepCell>& cells,
                      int indent) {
  JsonWriter w(os, indent);
  w.begin_object();
  w.kv("cell_count", static_cast<std::uint64_t>(cells.size()));
  w.key("cells");
  w.begin_array();
  for (const SweepCell& cell : cells) {
    w.begin_object();
    w.kv("scheduler", core::scheduler_kind_name(cell.kind));
    w.kv("iq_entries", cell.iq_entries);
    w.kv("hmean_ipc", cell.hmean_ipc);
    w.kv("hmean_fairness", cell.hmean_fairness);
    w.kv("ipc_speedup_vs_trad", cell.ipc_speedup_vs_trad);
    w.kv("fairness_gain_vs_trad", cell.fairness_gain_vs_trad);
    w.kv("mean_all_stall_fraction", cell.mean_all_stall_fraction);
    w.kv("mean_iq_residency", cell.mean_iq_residency);
    w.key("mixes");
    w.begin_array();
    for (const MixResult& m : cell.mixes) {
      w.begin_object();
      w.kv("mix", m.mix_name);
      w.kv("ok", m.ok);
      w.kv("attempts", m.attempts);
      if (!m.ok) {
        // Crash-isolated failure: the error replaces the measurements.
        w.kv("error", m.error);
        w.end_object();
        continue;
      }
      w.kv("throughput_ipc", m.throughput_ipc);
      w.kv("fairness", m.fairness);
      w.kv("cycles", m.raw.cycles);
      w.kv("all_stall_fraction", m.raw.dispatch.all_stall_fraction());
      w.kv("iq_residency", m.raw.iq.mean_residency());
      w.key("per_thread_ipc");
      w.begin_array();
      for (const double v : m.raw.per_thread_ipc) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  const std::vector<FailedCell> failures = sweep_failures(cells);
  w.kv("failed_count", static_cast<std::uint64_t>(failures.size()));
  if (!failures.empty()) {
    w.key("failed_cells");
    w.begin_array();
    for (const FailedCell& f : failures) {
      w.begin_object();
      w.kv("scheduler", core::scheduler_kind_name(f.kind));
      w.kv("iq_entries", f.iq_entries);
      w.kv("mix", f.mix_name);
      w.kv("error", f.error);
      w.kv("attempts", f.attempts);
      if (!f.diag.empty()) w.kv("diag", f.diag);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  os << '\n';
}

}  // namespace msim::sim
