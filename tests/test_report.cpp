#include "sim/report.hpp"

#include <gtest/gtest.h>

namespace msim::sim {
namespace {

SweepCell cell(core::SchedulerKind kind, std::uint32_t iq, double speedup,
               double fairness_gain) {
  SweepCell c;
  c.kind = kind;
  c.iq_entries = iq;
  c.hmean_ipc = 1.5;
  c.hmean_fairness = 0.7;
  c.ipc_speedup_vs_trad = speedup;
  c.fairness_gain_vs_trad = fairness_gain;
  c.mean_all_stall_fraction = 0.25;
  c.mean_iq_residency = 14.5;
  return c;
}

TEST(MetricValue, SelectsTheRightAggregate) {
  const SweepCell c = cell(core::SchedulerKind::kTwoOpBlock, 64, 1.1, 1.2);
  EXPECT_DOUBLE_EQ(metric_value(c, FigureMetric::kIpcSpeedup), 1.1);
  EXPECT_DOUBLE_EQ(metric_value(c, FigureMetric::kFairnessGain), 1.2);
  EXPECT_DOUBLE_EQ(metric_value(c, FigureMetric::kThroughputIpc), 1.5);
  EXPECT_DOUBLE_EQ(metric_value(c, FigureMetric::kAllStallFraction), 0.25);
  EXPECT_DOUBLE_EQ(metric_value(c, FigureMetric::kIqResidency), 14.5);
}

TEST(FigureTable, SpeedupsRenderedAsSignedPercent) {
  const std::vector<SweepCell> cells{
      cell(core::SchedulerKind::kTraditional, 64, 1.0, 1.0),
      cell(core::SchedulerKind::kTwoOpBlock, 64, 0.89, 0.85),
  };
  const std::array<core::SchedulerKind, 2> kinds{
      core::SchedulerKind::kTraditional, core::SchedulerKind::kTwoOpBlock};
  const std::array<std::uint32_t, 1> sizes{64};
  const TextTable t = figure_table(cells, {kinds.data(), kinds.size()},
                                   {sizes.data(), sizes.size()},
                                   FigureMetric::kIpcSpeedup);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("+0.0%"), std::string::npos);
  EXPECT_NE(csv.find("-11.0%"), std::string::npos);
  EXPECT_NE(csv.find("iq_entries"), std::string::npos);
  EXPECT_NE(csv.find("2op_block"), std::string::npos);
}

TEST(FigureTable, RawMetricsRenderedAsNumbers) {
  const std::vector<SweepCell> cells{
      cell(core::SchedulerKind::kTraditional, 32, 1.0, 1.0)};
  const std::array<core::SchedulerKind, 1> kinds{core::SchedulerKind::kTraditional};
  const std::array<std::uint32_t, 1> sizes{32};
  const TextTable t = figure_table(cells, {kinds.data(), kinds.size()},
                                   {sizes.data(), sizes.size()},
                                   FigureMetric::kThroughputIpc);
  EXPECT_NE(t.to_csv().find("1.500"), std::string::npos);
}

TEST(FigureTable, OneRowPerIqSize) {
  std::vector<SweepCell> cells;
  for (std::uint32_t iq : {32u, 64u, 96u}) {
    cells.push_back(cell(core::SchedulerKind::kTraditional, iq, 1.0, 1.0));
  }
  const std::array<core::SchedulerKind, 1> kinds{core::SchedulerKind::kTraditional};
  const std::array<std::uint32_t, 3> sizes{32, 64, 96};
  const TextTable t = figure_table(cells, {kinds.data(), kinds.size()},
                                   {sizes.data(), sizes.size()},
                                   FigureMetric::kIpcSpeedup);
  EXPECT_EQ(t.row_count(), 3u);
}

}  // namespace
}  // namespace msim::sim
