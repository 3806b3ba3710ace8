// Statistical-accuracy and equivalence harness for mode=sampled
// (sim/sampled.hpp, docs/SAMPLING.md).
//
// The accuracy matrix is the headline contract: across six golden
// scheduler/mix configurations and three seeds, the sampled estimates must
// land within 3% (IPC) / 5% (MPKI) of a full exact simulation of the same
// span.  Around it: bit-identical results at any job count, golden region
// selections pinned across seeds (the integer clustering makes them
// build-independent), functional-warm-up state-equivalence properties
// against the detailed front end, interval-telemetry composition, and the
// negative path (faults + verify under sampling must abort with a
// diagnostic naming the failing region, never return a silent estimate).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "mem/cache.hpp"
#include "obs/interval.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace {

using namespace msim;

sim::RunConfig golden_config(core::SchedulerKind kind,
                             std::vector<std::string> benchmarks,
                             std::uint64_t seed) {
  sim::RunConfig cfg;
  cfg.benchmarks = std::move(benchmarks);
  cfg.kind = kind;
  cfg.iq_entries = 64;
  cfg.seed = seed;
  cfg.warmup = 0;
  cfg.horizon = 30'000;
  return cfg;
}

sim::SampledConfig golden_sampled() {
  sim::SampledConfig scfg;
  scfg.region_length = 10'000;
  scfg.detail_warmup = 10'000;
  return scfg;
}

double pct_error(double est, double exact) {
  return 100.0 * std::abs(est - exact) / exact;
}

struct ExactBaseline {
  double ipc = 0.0;
  double l1d_mpki = 0.0;
  double l2_mpki = 0.0;
};

ExactBaseline exact_baseline(const sim::RunConfig& cfg) {
  const sim::RunResult r = sim::run_simulation(cfg);
  std::uint64_t committed = 0;
  for (const std::uint64_t c : r.per_thread_committed) committed += c;
  ExactBaseline b;
  b.ipc = r.throughput_ipc;
  b.l1d_mpki = 1000.0 * static_cast<double>(r.memory.l1d.misses) /
               static_cast<double>(committed);
  b.l2_mpki = 1000.0 * static_cast<double>(r.memory.l2.misses) /
              static_cast<double>(committed);
  return b;
}

// ---------------------------------------------------------------------------
// Accuracy matrix: six golden configurations x seeds {1,2,3}.

struct MatrixCase {
  const char* label;
  core::SchedulerKind kind;
  std::vector<std::string> benchmarks;
};

const std::vector<MatrixCase>& matrix_cases() {
  static const std::vector<MatrixCase> kCases = {
      {"2T traditional", core::SchedulerKind::kTraditional, {"gzip", "equake"}},
      {"2T 2op_block_ooo", core::SchedulerKind::kTwoOpBlockOoo,
       {"gzip", "equake"}},
      {"4T traditional", core::SchedulerKind::kTraditional,
       {"gzip", "equake", "gcc", "mesa"}},
      {"4T 2op_block", core::SchedulerKind::kTwoOpBlock,
       {"gzip", "equake", "gcc", "mesa"}},
      {"4T 2op_block_ooo", core::SchedulerKind::kTwoOpBlockOoo,
       {"gzip", "equake", "gcc", "mesa"}},
      {"4T tag_elimination", core::SchedulerKind::kTagElimination,
       {"gzip", "equake", "gcc", "mesa"}},
  };
  return kCases;
}

TEST(SampledAccuracy, GoldenMatrixWithinErrorBounds) {
  for (const MatrixCase& mc : matrix_cases()) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const sim::RunConfig cfg = golden_config(mc.kind, mc.benchmarks, seed);
      const ExactBaseline exact = exact_baseline(cfg);
      const sim::SampledResult est = sim::run_sampled(cfg, golden_sampled());
      const std::string at =
          std::string(mc.label) + " seed " + std::to_string(seed);
      EXPECT_LE(pct_error(est.est_ipc, exact.ipc), 3.0) << at;
      EXPECT_LE(pct_error(est.est_l1d_mpki, exact.l1d_mpki), 5.0) << at;
      EXPECT_LE(pct_error(est.est_l2_mpki, exact.l2_mpki), 5.0) << at;
      // The dispersion band is a phase-spread indicator, not a bound, but
      // it must at least be finite and non-negative.
      EXPECT_GE(est.ipc_ci95, 0.0) << at;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the estimate and its JSON report are bit-identical at any
// job count (fixed region order, fixed aggregation order).

TEST(SampledDeterminism, JobCountDoesNotChangeResults) {
  const sim::RunConfig cfg = golden_config(
      core::SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake", "gcc", "mesa"}, 1);
  sim::SampledConfig serial = golden_sampled();
  serial.jobs = 1;
  sim::SampledConfig parallel = golden_sampled();
  parallel.jobs = 4;

  const sim::SampledResult a = sim::run_sampled(cfg, serial);
  const sim::SampledResult b = sim::run_sampled(cfg, parallel);

  EXPECT_EQ(a.sampled_digest, b.sampled_digest);
  EXPECT_EQ(a.est_ipc, b.est_ipc);  // bit-equal, not approximately
  EXPECT_EQ(a.est_l1d_mpki, b.est_l1d_mpki);
  EXPECT_EQ(a.est_l2_mpki, b.est_l2_mpki);
  EXPECT_EQ(a.est_mispredict_rate, b.est_mispredict_rate);
  EXPECT_EQ(a.regions_detailed, b.regions_detailed);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].cluster, b.regions[i].cluster) << i;
    EXPECT_EQ(a.regions[i].detailed, b.regions[i].detailed) << i;
    EXPECT_EQ(a.regions[i].digest, b.regions[i].digest) << i;
  }

  std::ostringstream ja, jb;
  sim::write_sampled_json(ja, cfg, serial, a);
  sim::write_sampled_json(jb, cfg, parallel, b);
  EXPECT_EQ(ja.str(), jb.str());
}

// ---------------------------------------------------------------------------
// Golden region selections: the integer feature clustering makes the
// selected representatives a pure function of (config, seed) -- pinned here
// so a drive-by change to features or tolerances shows up as a diff, not as
// silent estimate drift.

std::vector<std::uint64_t> selected_regions(const sim::SampledResult& r) {
  std::vector<std::uint64_t> out;
  for (const sim::SampledRegion& region : r.regions) {
    if (region.detailed) out.push_back(region.index);
  }
  return out;
}

// The pinned representative sets (region indices) for the golden selection
// config below.  Update deliberately -- any change here means the clustering
// features, tolerances or medoid rule changed.
std::vector<std::uint64_t> golden_selection(std::uint64_t seed) {
  switch (seed) {
    case 1: return {0, 20, 35};
    case 2: return {0, 1, 9, 12, 24, 28, 32};
    case 3: return {0, 2, 5, 22};
    default: return {};
  }
}

TEST(SampledGolden, RegionSelectionsPinnedAcrossSeeds) {
  // 40 regions of 5k instructions: past Tolerance::kSmallRun, so the
  // default clustering band applies and genuine merging happens -- the pin
  // covers the production tolerance path, not the small-run one.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    sim::RunConfig cfg = golden_config(
        core::SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake", "gcc", "mesa"},
        seed);
    cfg.horizon = 200'000;
    sim::SampledConfig scfg;
    scfg.region_length = 5'000;
    scfg.detail_warmup = 5'000;
    const sim::SampledResult r = sim::run_sampled(cfg, scfg);
    EXPECT_EQ(r.regions_total, 40u) << seed;
    EXPECT_EQ(selected_regions(r), golden_selection(seed)) << seed;
  }
}

// ---------------------------------------------------------------------------
// Functional warm-up equivalence: after a functional block sized to a
// detailed run's per-thread fetch counts, the long-lived state a region
// checkpoint inherits matches the detailed run's (see the equivalence
// contract in smt/functional.cpp).

// Saves a copy: a component's one serializer, state_io, is not const.
template <typename T>
std::vector<std::uint8_t> state_bytes(const T& component) {
  T copy = component;
  persist::Archive ar = persist::Archive::saver();
  copy.state_io(ar);
  return ar.bytes();
}

std::vector<std::uint8_t> gshare_bytes(const smt::Pipeline& pipe, ThreadId t) {
  return state_bytes(pipe.predictor().gshare(t));
}

std::vector<std::uint8_t> btb_bytes(const smt::Pipeline& pipe) {
  return state_bytes(pipe.predictor().btb());
}

std::vector<std::uint8_t> generator_bytes(const smt::Pipeline& pipe,
                                          ThreadId t) {
  return state_bytes(pipe.generator(t));
}

smt::MachineConfig machine_for(std::initializer_list<const char*> names) {
  smt::MachineConfig mc;
  mc.thread_count = static_cast<unsigned>(names.size());
  mc.scheduler.kind = core::SchedulerKind::kTwoOpBlockOoo;
  mc.scheduler.iq_entries = 64;
  return mc;
}

std::vector<trace::BenchmarkProfile> profiles_for(
    std::initializer_list<const char*> names) {
  std::vector<trace::BenchmarkProfile> out;
  for (const char* n : names) out.push_back(trace::profile_or_throw(n));
  return out;
}

TEST(FunctionalEquivalence, PerThreadPredictorStateMatchesDetailedRun) {
  const auto names = {"gzip", "equake"};
  const smt::MachineConfig mc = machine_for(names);
  const auto profiles = profiles_for(names);

  smt::Pipeline detailed(mc, profiles, 1);
  detailed.run(8'000);

  smt::Pipeline functional(mc, profiles, 1);
  std::vector<std::uint64_t> targets;
  for (ThreadId t = 0; t < detailed.thread_count(); ++t) {
    targets.push_back(detailed.fetched(t));
  }
  functional.run_functional(
      std::span<const std::uint64_t>(targets.data(), targets.size()));
  // The detailed front end keeps a one-instruction generator lookahead;
  // align the functional generators before comparing their state.
  for (ThreadId t = 0; t < detailed.thread_count(); ++t) {
    if (detailed.has_pending_fetch(t)) functional.prime_fetch_lookahead(t);
  }

  for (ThreadId t = 0; t < detailed.thread_count(); ++t) {
    EXPECT_EQ(gshare_bytes(detailed, t), gshare_bytes(functional, t)) << t;
    EXPECT_EQ(generator_bytes(detailed, t), generator_bytes(functional, t))
        << t;
  }
}

TEST(FunctionalEquivalence, SingleThreadSharedStateMatchesDetailedRun) {
  const auto names = {"gcc"};
  const smt::MachineConfig mc = machine_for(names);
  const auto profiles = profiles_for(names);

  smt::Pipeline detailed(mc, profiles, 1);
  detailed.run(10'000);

  smt::Pipeline functional(mc, profiles, 1);
  functional.run_functional(detailed.fetched(0));
  if (detailed.has_pending_fetch(0)) functional.prime_fetch_lookahead(0);

  // With one thread there is no interleaving freedom: the shared BTB sees
  // the identical update sequence, and the L1I the identical line-access
  // order (so the identical LRU victims and resident set -- timestamps
  // differ, tags cannot).
  EXPECT_EQ(btb_bytes(detailed), btb_bytes(functional));
  EXPECT_EQ(generator_bytes(detailed, 0), generator_bytes(functional, 0));
  EXPECT_EQ(detailed.memory().l1i().resident_lines(),
            functional.memory().l1i().resident_lines());
}

TEST(FunctionalEquivalence, MultiThreadCacheContentsLargelyOverlap) {
  // Across threads the functional pass replays the same per-thread access
  // sequences under a different interleaving, so shared-cache contents
  // match only statistically.  Pin a floor on the overlap: the property
  // that makes functionally-warmed checkpoints usable at all.
  const auto names = {"gzip", "equake", "gcc", "mesa"};
  const smt::MachineConfig mc = machine_for(names);
  const auto profiles = profiles_for(names);

  smt::Pipeline detailed(mc, profiles, 1);
  detailed.run(10'000);

  smt::Pipeline functional(mc, profiles, 1);
  std::vector<std::uint64_t> targets;
  for (ThreadId t = 0; t < detailed.thread_count(); ++t) {
    targets.push_back(detailed.fetched(t));
  }
  functional.run_functional(
      std::span<const std::uint64_t>(targets.data(), targets.size()));

  const auto overlap_fraction = [](const std::vector<Addr>& a,
                                   const std::vector<Addr>& b) {
    const std::set<Addr> sa(a.begin(), a.end());
    std::size_t shared = 0;
    for (const Addr line : b) shared += sa.count(line);
    const std::size_t denom = std::max(a.size(), b.size());
    return denom ? static_cast<double>(shared) / static_cast<double>(denom)
                 : 1.0;
  };
  const double l1i = overlap_fraction(detailed.memory().l1i().resident_lines(),
                                      functional.memory().l1i().resident_lines());
  const double l2 = overlap_fraction(detailed.memory().l2().resident_lines(),
                                     functional.memory().l2().resident_lines());
  EXPECT_GE(l1i, 0.5);
  EXPECT_GE(l2, 0.5);
}

// ---------------------------------------------------------------------------
// Interval telemetry composition: records come only from detailed regions,
// tagged with the region id, in region order.

TEST(SampledIntervals, RecordsAreRegionTaggedAndOrdered) {
  sim::RunConfig cfg = golden_config(core::SchedulerKind::kTwoOpBlockOoo,
                                     {"gzip", "equake"}, 1);
  cfg.interval_cycles = 2'000;
  const sim::SampledResult r = sim::run_sampled(cfg, golden_sampled());
  ASSERT_FALSE(r.intervals.empty());

  std::set<std::int64_t> detailed_ids;
  for (const sim::SampledRegion& region : r.regions) {
    if (region.detailed) {
      detailed_ids.insert(static_cast<std::int64_t>(region.index));
    }
  }
  std::int64_t prev = -1;
  for (const obs::IntervalRecord& rec : r.intervals) {
    ASSERT_GE(rec.region_id, 0);
    EXPECT_TRUE(detailed_ids.count(rec.region_id)) << rec.region_id;
    EXPECT_GE(rec.region_id, prev);  // region order, non-decreasing
    prev = rec.region_id;
    EXPECT_NE(obs::format_interval_record(rec).find("\"region\":"),
              std::string::npos);
  }

  // Exact-mode records carry no region tag and format without the key.
  obs::IntervalRecord plain = r.intervals.front();
  plain.region_id = -1;
  EXPECT_EQ(obs::format_interval_record(plain).find("\"region\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Negative path: sampling + verify + faults must end in a clean estimate or
// a SimulationAborted naming the failing region -- never a silent estimate.

TEST(SampledNegative, SabotageFaultAbortsWithRegionDiagnostic) {
  sim::RunConfig cfg = golden_config(core::SchedulerKind::kTwoOpBlockOoo,
                                     {"gzip", "equake"}, 1);
  cfg.verify = true;
  cfg.hang_cycles = 3'000;
  robust::FaultPlan plan;
  plan.commit_block_from = 0;  // commit stalls forever in every region sim
  const robust::FaultInjector injector(plan);
  cfg.faults = &injector;

  try {
    (void)sim::run_sampled(cfg, golden_sampled());
    FAIL() << "sabotaged sampled run returned an estimate";
  } catch (const robust::SimulationAborted& e) {
    EXPECT_NE(std::string(e.what()).find("sampled region"), std::string::npos)
        << e.what();
    EXPECT_FALSE(e.bundle().empty());
  }
}

TEST(SampledNegative, SurvivableFaultsStillProduceAnEstimate) {
  sim::RunConfig cfg = golden_config(core::SchedulerKind::kTwoOpBlockOoo,
                                     {"gzip", "equake"}, 1);
  cfg.verify = true;
  const robust::FaultPlan plan = robust::FaultPlan::random(1, 0, 0.05);
  ASSERT_FALSE(plan.sabotage());
  const robust::FaultInjector injector(plan);
  cfg.faults = &injector;

  const sim::SampledResult r = sim::run_sampled(cfg, golden_sampled());
  EXPECT_GT(r.est_ipc, 0.0);
  EXPECT_GE(r.regions_detailed, 1u);
}

// ---------------------------------------------------------------------------
// Knob validation: combinations the sampled engine cannot honor are
// rejected up front with std::invalid_argument, not silently ignored.

TEST(SampledValidate, RejectsUnsupportedKnobs) {
  const sim::RunConfig base = golden_config(
      core::SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake"}, 1);
  const sim::SampledConfig scfg = golden_sampled();

  sim::RunConfig ckpt = base;
  ckpt.checkpoint_path = "x.ckpt";
  EXPECT_THROW((void)sim::run_sampled(ckpt, scfg), std::invalid_argument);

  sim::RunConfig cycles = base;
  cycles.max_cycles = 100'000;
  EXPECT_THROW((void)sim::run_sampled(cycles, scfg), std::invalid_argument);

  sim::RunConfig traced = base;
  traced.trace_capacity = 1024;
  EXPECT_THROW((void)sim::run_sampled(traced, scfg), std::invalid_argument);

  sim::SampledConfig zero = scfg;
  zero.region_length = 0;
  EXPECT_THROW((void)sim::run_sampled(base, zero), std::invalid_argument);
}

}  // namespace
