// Table builders that render sweep results in the shape of the paper's
// figures (speedup-vs-IQ-size series per scheduler kind).
#pragma once

#include <ostream>
#include <span>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace msim::sim {

/// Which aggregate a figure plots.
enum class FigureMetric {
  kIpcSpeedup,       ///< Figures 1, 3, 5, 7
  kFairnessGain,     ///< Figures 4, 6, 8
  kThroughputIpc,    ///< raw harmonic-mean IPC
  kAllStallFraction, ///< Section-3 dispatch stall statistic
  kIqResidency,      ///< mean cycles between dispatch and issue
};

[[nodiscard]] double metric_value(const SweepCell& cell, FigureMetric metric);

/// Rows = IQ sizes, one column per scheduler kind.  Speedup metrics are
/// rendered as signed percentages relative to the traditional scheduler of
/// the same capacity (exactly how the paper's figures are labelled).
[[nodiscard]] TextTable figure_table(const std::vector<SweepCell>& cells,
                                     std::span<const core::SchedulerKind> kinds,
                                     std::span<const std::uint32_t> iq_sizes,
                                     FigureMetric metric);

/// One run as a JSON document: the resolved configuration, headline results
/// and the full metric-registry snapshot.
void write_run_json(std::ostream& os, const RunConfig& config,
                    const RunResult& result, int indent = 2);

/// A sweep grid as a JSON document: one record per (kind, IQ) cell with its
/// aggregates and a per-mix drill-down — the machine-readable counterpart of
/// figure_table.
void write_sweep_json(std::ostream& os, const std::vector<SweepCell>& cells,
                      int indent = 2);

}  // namespace msim::sim
