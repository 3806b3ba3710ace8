#include "sim/sampled.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/sched_types.hpp"
#include "obs/region.hpp"
#include "robust/diagnostic.hpp"
#include "robust/fault.hpp"
#include "robust/invariant.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace msim::sim {

namespace {

/// Archive payload of the whole pipeline, held in memory: the region
/// checkpoint set never touches the filesystem.
std::vector<std::uint8_t> snapshot(const smt::Pipeline& pipe) {
  persist::Archive ar = persist::Archive::saver();
  pipe.save_state(ar);
  return ar.bytes();
}

/// Loads a snapshot() payload into a pipeline freshly constructed with the
/// configuration, workload and seed it was taken from.
void restore(smt::Pipeline& pipe, const std::vector<std::uint8_t>& snap) {
  persist::Archive ar = persist::Archive::loader(snap);
  pipe.load_state(ar);
  ar.expect_end();
}

/// Measurements harvested from one detailed region replay.
struct RegionMeasure {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::vector<std::uint64_t> per_thread_committed;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t digest = 0;
  std::uint64_t total_with_warmup = 0;  ///< committed incl. detail warm-up
  std::vector<obs::IntervalRecord> intervals;
  std::uint64_t intervals_dropped = 0;
};

/// Replays one selected region in detail: fresh pipeline, restore the
/// functional checkpoint at (region start - detail warm-up), run the
/// warm-up in cycle-level mode, reset statistics, and measure the region.
/// Failures surface as SimulationAborted naming the region, with a
/// diagnostic bundle of the region pipeline -- never a silent estimate.
RegionMeasure measure_region(const RunConfig& base, smt::MachineConfig mc,
                             const std::vector<trace::BenchmarkProfile>& profiles,
                             const core::FaultHooks* fault_session,
                             const std::vector<std::uint8_t>& checkpoint,
                             std::uint64_t region_index,
                             std::uint64_t region_start, std::uint64_t region_end) {
  mc.fault_hooks = fault_session;
  smt::Pipeline pipe(mc, profiles, base.seed);
  robust::InvariantChecker checker;
  if (base.verify) pipe.set_observer(&checker);

  restore(pipe, checkpoint);
  const std::uint64_t restored = pipe.total_committed();

  const auto abort_with = [&](const std::string& what) -> RegionMeasure {
    const std::string reason =
        "sampled region " + std::to_string(region_index) + ": " + what;
    throw robust::SimulationAborted(reason,
                                    robust::diagnostic_bundle(pipe, reason));
  };
  try {
    // Detail warm-up: from the checkpoint's instruction offset up to the
    // region start, draining the cold (empty) pipeline.
    if (region_start > 0) pipe.run(region_start);
    const std::uint64_t warm_committed = pipe.total_committed() - restored;
    pipe.reset_stats();
    pipe.run(region_end - region_start);

    RegionMeasure m;
    m.cycles = pipe.cycles();
    m.committed = pipe.total_committed();
    for (ThreadId t = 0; t < pipe.thread_count(); ++t) {
      m.per_thread_committed.push_back(pipe.committed(t));
    }
    const mem::HierarchyStats ms = pipe.memory().stats();
    m.l1d_misses = ms.l1d.misses;
    m.l2_misses = ms.l2.misses;
    const bpred::PredictorStats bs = pipe.predictor().total_stats();
    m.branches = bs.branches;
    m.mispredicts = bs.mispredicts;
    m.digest = pipe.commit_digest();
    m.total_with_warmup = warm_committed + m.committed;
    if (pipe.interval_engine().enabled()) {
      const auto& ring = pipe.interval_engine().records();
      m.intervals.assign(ring.begin(), ring.end());
      for (obs::IntervalRecord& r : m.intervals) {
        r.region_id = static_cast<std::int64_t>(region_index);
      }
      m.intervals_dropped = pipe.interval_engine().dropped();
    }
    return m;
  } catch (const smt::NoForwardProgress& e) {
    return abort_with(std::string("hang watchdog: ") + e.what());
  } catch (const CheckError& e) {
    return abort_with(e.what());
  }
}

}  // namespace

void SampledConfig::validate(const RunConfig& base) const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("sampled: " + what);
  };
  base.validate();
  if (region_length == 0) fail("region_length must be >= 1");
  if (!base.checkpoint_path.empty() || !base.resume_path.empty() ||
      base.checkpoint_every != 0 || base.checkpoint_exit_cycles != 0) {
    fail("checkpoint/resume knobs do not compose with mode=sampled (region "
         "checkpoints are internal and in-memory)");
  }
  if (base.max_cycles != 0) {
    fail("max_cycles truncation is undefined under sampling; bound the run "
         "with horizon instead");
  }
  if (base.trace_capacity != 0) {
    fail("lifecycle tracing of a sampled run would interleave disjoint "
         "regions; trace an exact run instead");
  }
}

SampledResult run_sampled(const RunConfig& base, const SampledConfig& sampled) {
  sampled.validate(base);
  std::vector<trace::BenchmarkProfile> profiles;
  profiles.reserve(base.benchmarks.size());
  for (const std::string& name : base.benchmarks) {
    profiles.push_back(trace::profile_or_throw(name));
  }
  smt::MachineConfig mc = base.machine();

  const std::uint64_t L = sampled.region_length;
  const std::uint64_t D = sampled.detail_warmup;
  // All positions below are on the *leading-thread* axis: the warm-up /
  // horizon stop rule is any-thread, so the fastest thread's instruction
  // count is the run's clock.
  const std::uint64_t span = base.warmup + base.horizon;
  const std::uint64_t region_count = (span + L - 1) / L;
  const unsigned threads = static_cast<unsigned>(profiles.size());

  // ---- pilot: per-thread commit-rate estimate -----------------------------
  // A short detailed run from cold start measures how fast each thread
  // commits relative to the leader.  The functional pass then advances
  // thread t to position pace_base[t] + (p - pace_from) * rate[t] / rate_den
  // when the leader is at p, mirroring the thread skew an exact run
  // accumulates (integer ratios: deterministic, monotone, overflow-safe at
  // these magnitudes).  Because relative rates drift over a long run (the
  // skew ratio keeps evolving as the shared caches and IQ occupancy settle),
  // the pacing is piecewise: periodically (every 250k leader instructions,
  // stretched to span/12 on very long runs so the probe cost stays a fixed
  // small fraction of the pass) a
  // short detailed probe re-measures local rates from the checkpoint the
  // pass just took, starting a new pacing segment from the current targets
  // (so paced positions stay continuous and monotone).
  std::vector<std::uint64_t> rate(threads, 1);
  std::uint64_t rate_den = 1;
  std::vector<std::uint64_t> pace_base(threads, 0);
  std::uint64_t pace_from = 0;
  const auto paced = [&](std::uint64_t p) {
    std::vector<std::uint64_t> targets(threads);
    for (unsigned t = 0; t < threads; ++t) {
      targets[t] = pace_base[t] + (p - pace_from) * rate[t] / rate_den;
    }
    return targets;
  };
  // Updates rate/rate_den from a detailed run of `pipe` until its leading
  // thread has advanced `sampled.pilot` instructions past `from`.
  const auto measure_rates = [&](smt::Pipeline& pilot, std::uint64_t from) {
    std::vector<std::uint64_t> before(threads);
    for (ThreadId t = 0; t < threads; ++t) before[t] = pilot.committed(t);
    pilot.run(from + sampled.pilot);
    std::uint64_t fastest = 0;
    for (ThreadId t = 0; t < threads; ++t) {
      fastest = std::max(fastest, pilot.committed(t) - before[t]);
    }
    rate_den = std::max<std::uint64_t>(fastest, 1);
    for (ThreadId t = 0; t < threads; ++t) {
      rate[t] = std::max<std::uint64_t>(pilot.committed(t) - before[t], 1);
    }
  };
  if (sampled.pilot != 0 && threads > 1) {
    smt::Pipeline pilot(mc, profiles, base.seed);
    const std::uint64_t shed = sampled.pilot / 4 + 1;
    pilot.run(shed);  // shed the cold-start transient
    measure_rates(pilot, shed);
  }

  // ---- functional profile pass --------------------------------------------
  // One streaming pass over the whole run: region feature profiles for the
  // selector plus an in-memory checkpoint at every region's detailed-sim
  // entry point (region start minus detail warm-up).  Execution is cut at
  // each event boundary so profile deltas align exactly with regions.
  struct Event {
    std::uint64_t at = 0;
    bool is_checkpoint = false;
    std::uint64_t region = 0;
  };
  std::vector<Event> events;
  events.reserve(2 * region_count);
  for (std::uint64_t r = 0; r < region_count; ++r) {
    const std::uint64_t start = r * L;
    events.push_back({start >= D ? start - D : 0, true, r});
    events.push_back({std::min(start + L, span), false, r});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_checkpoint != b.is_checkpoint) return a.is_checkpoint;
    return a.region < b.region;
  });

  // One pool serves both the functional pass (producer tasks) and the
  // detailed region sims.  Results are bit-identical with or without it.
  const unsigned jobs =
      sampled.jobs != 0 ? sampled.jobs : ThreadPool::default_parallelism();
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  smt::Pipeline func(mc, profiles, base.seed);
  std::vector<obs::RegionProfile> profs(region_count);
  for (std::uint64_t r = 0; r < region_count; ++r) {
    profs[r].index = r;
    profs[r].threads.resize(threads);
    const std::uint64_t start = r * L;
    const std::uint64_t end = std::min(start + L, span);
    const std::uint64_t measured_from = std::max(start, base.warmup);
    profs[r].weight = end > measured_from ? end - measured_from : 0;
  }
  std::vector<std::vector<std::uint8_t>> checkpoints(region_count);
  // Pacing-segment cadence: frequent enough to track commit-rate drift, rare
  // enough that the probes stay a small fraction of the pass (one ~10ms
  // probe per ~80ms of functional execution at 4 threads).
  const std::uint64_t recalibrate_every =
      std::max<std::uint64_t>(250'000, span / 12);
  std::uint64_t next_recalibrate = recalibrate_every;
  std::uint64_t functional_instructions = 0;
  std::uint64_t pos = 0;
  mem::HierarchyStats mem_prev = func.memory().stats();
  for (const Event& ev : events) {
    if (ev.at > pos) {
      obs::RegionProfile& p = profs[pos / L];
      // Advance each thread from its paced position at `pos` to its paced
      // position at `ev.at` (the leader advances by the full gap).
      const std::vector<std::uint64_t> from = paced(pos);
      const std::vector<std::uint64_t> to = paced(ev.at);
      std::vector<std::uint64_t> step(threads);
      for (unsigned t = 0; t < threads; ++t) step[t] = to[t] - from[t];
      const auto deltas = func.run_functional(step, pool.get());
      for (unsigned t = 0; t < threads; ++t) {
        obs::RegionThreadProfile& tp = p.threads[t];
        tp.instructions += deltas[t].instructions;
        tp.branches += deltas[t].branches;
        tp.mispredicts += deltas[t].mispredicts;
        tp.loads += deltas[t].loads;
        tp.stores += deltas[t].stores;
        functional_instructions += deltas[t].instructions;
      }
      const mem::HierarchyStats now = func.memory().stats();
      p.l1i_misses += now.l1i.misses - mem_prev.l1i.misses;
      p.l1d_misses += now.l1d.misses - mem_prev.l1d.misses;
      p.l2_misses += now.l2.misses - mem_prev.l2.misses;
      mem_prev = now;
      pos = ev.at;
    }
    if (ev.is_checkpoint && checkpoints[ev.region].empty()) {
      checkpoints[ev.region] = snapshot(func);
      if (sampled.pilot != 0 && threads > 1 && ev.at >= next_recalibrate) {
        next_recalibrate = ev.at + recalibrate_every;
        // Local-rate probe: a detailed pipeline restored from the checkpoint
        // just taken.  A quarter-pilot lead-in drains the cold (empty)
        // pipeline before rates are measured, as in the initial pilot.
        smt::Pipeline probe(mc, profiles, base.seed);
        restore(probe, checkpoints[ev.region]);
        const std::uint64_t shed = ev.at + sampled.pilot / 4 + 1;
        probe.run(shed);
        pace_base = paced(ev.at);
        pace_from = ev.at;
        measure_rates(probe, shed);
      }
    }
  }

  // ---- cluster and select representatives ---------------------------------
  SampledResult out;
  out.regions_total = region_count;
  out.functional_instructions = functional_instructions;
  out.regions.resize(region_count);
  obs::RegionClusters clusters(
      obs::RegionClusters::Tolerance::for_region_count(region_count));
  for (std::uint64_t r = 0; r < region_count; ++r) {
    SampledRegion& sr = out.regions[r];
    sr.index = r;
    sr.weight = profs[r].weight;
    sr.fingerprint = obs::region_fingerprint(profs[r]);
    sr.cluster = clusters.assign(profs[r]);
  }
  out.clusters = clusters.size();
  // Representative per cluster: the medoid over fully-measured members
  // (weight == region length), so a first-seen leader sitting at the edge
  // of the tolerance band is not mistaken for typical.  Partially-measured
  // members (straddling the warm-up boundary or the final ragged region)
  // stay eligible only if no full member exists.  Clusters wholly inside
  // the warm-up window have weight 0 and are never simulated -- their
  // state contribution already flowed through the functional pass into
  // every later checkpoint.
  std::vector<std::uint64_t> cluster_weight(clusters.size(), 0);
  std::vector<std::vector<std::uint64_t>> full_members(clusters.size());
  std::vector<std::vector<std::uint64_t>> partial_members(clusters.size());
  for (std::uint64_t r = 0; r < region_count; ++r) {
    const SampledRegion& sr = out.regions[r];
    cluster_weight[sr.cluster] += sr.weight;
    if (sr.weight == L) {
      full_members[sr.cluster].push_back(r);
    } else if (sr.weight > 0) {
      partial_members[sr.cluster].push_back(r);
    }
  }
  std::vector<std::uint64_t> selected;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (cluster_weight[c] == 0) continue;
    const std::vector<std::uint64_t>& candidates =
        full_members[c].empty() ? partial_members[c] : full_members[c];
    SampledRegion& rep = out.regions[clusters.medoid(c, candidates)];
    rep.detailed = true;
    rep.cluster_weight = cluster_weight[c];
    selected.push_back(rep.index);
  }
  std::sort(selected.begin(), selected.end());
  out.regions_detailed = selected.size();

  // ---- detailed region sims (parallel, deterministically aggregated) ------
  // One fault session per region pipeline, created serially up front; the
  // plan decides per stream whether it applies, exactly as in exact mode.
  std::vector<std::unique_ptr<core::FaultHooks>> sessions(selected.size());
  if (base.faults) {
    for (auto& s : sessions) s = base.faults->session(base.seed);
  }
  std::vector<RegionMeasure> measures(selected.size());
  std::vector<std::exception_ptr> errors(selected.size());
  const auto task = [&](std::size_t i) {
    const std::uint64_t r = selected[i];
    try {
      measures[i] = measure_region(base, mc, profiles, sessions[i].get(),
                                   checkpoints[r], r, r * L,
                                   std::min(r * L + L, span));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (pool == nullptr || selected.size() <= 1) {
    for (std::size_t i = 0; i < selected.size(); ++i) task(i);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      futures.push_back(pool->submit([&task, i] { task(i); }));
    }
    for (auto& f : futures) f.get();
  }
  // Surface the first failure in region order (job-count independent).
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // ---- reconstitute whole-run estimates -----------------------------------
  double est_cycles = 0.0;
  double est_committed = 0.0;
  std::vector<double> est_thread_committed(threads, 0.0);
  double sum_w = 0.0, sum_w2 = 0.0, sum_w_ipc = 0.0;
  // Per-cluster calibration: the detailed representative's event counts over
  // its functional profile's counts for the same region.  See below.
  struct Calibration {
    double insts = 1.0;
    double l1d = 1.0;
    double l2 = 1.0;
    double branches = 1.0;
    double mispredicts = 1.0;
  };
  std::vector<Calibration> cal(out.clusters);
  const auto ratio = [](std::uint64_t detailed, std::uint64_t functional) {
    return functional > 0 ? static_cast<double>(detailed) /
                                static_cast<double>(functional)
                          : 1.0;
  };
  Fnv1a digest;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::uint64_t r = selected[i];
    SampledRegion& sr = out.regions[r];
    const RegionMeasure& m = measures[i];
    sr.cycles = m.cycles;
    sr.committed = m.committed;
    sr.per_thread_committed = m.per_thread_committed;
    sr.l1d_misses = m.l1d_misses;
    sr.l2_misses = m.l2_misses;
    sr.branches = m.branches;
    sr.mispredicts = m.mispredicts;
    sr.digest = m.digest;
    out.detailed_committed += m.total_with_warmup;
    out.intervals.insert(out.intervals.end(), m.intervals.begin(),
                         m.intervals.end());
    out.intervals_dropped += m.intervals_dropped;
    digest.u64(r);
    digest.u64(m.digest);

    const std::uint64_t len = std::min(r * L + L, span) - r * L;
    // Replication factor: how many measured per-thread instructions this
    // representative stands for, per instruction it actually measured.
    const double scale =
        static_cast<double>(sr.cluster_weight) / static_cast<double>(len);
    est_cycles += scale * static_cast<double>(m.cycles);
    est_committed += scale * static_cast<double>(m.committed);
    for (unsigned t = 0; t < threads; ++t) {
      est_thread_committed[t] +=
          scale * static_cast<double>(m.per_thread_committed[t]);
    }

    {
      const obs::RegionProfile& p = profs[r];
      std::uint64_t func_branches = 0, func_mispredicts = 0;
      for (const obs::RegionThreadProfile& t : p.threads) {
        func_branches += t.branches;
        func_mispredicts += t.mispredicts;
      }
      Calibration& c = cal[sr.cluster];
      c.insts = ratio(m.committed, p.total_instructions());
      c.l1d = ratio(m.l1d_misses, p.l1d_misses);
      c.l2 = ratio(m.l2_misses, p.l2_misses);
      c.branches = ratio(m.branches, func_branches);
      c.mispredicts = ratio(m.mispredicts, func_mispredicts);
    }

    const double w = static_cast<double>(sr.cluster_weight);
    const double region_ipc =
        m.cycles ? static_cast<double>(m.committed) / static_cast<double>(m.cycles)
                 : 0.0;
    sum_w += w;
    sum_w2 += w * w;
    sum_w_ipc += w * region_ipc;
  }
  out.sampled_digest = digest.h;
  if (est_cycles > 0.0) {
    out.est_ipc = est_committed / est_cycles;
    for (unsigned t = 0; t < threads; ++t) {
      out.per_thread_ipc.push_back(est_thread_committed[t] / est_cycles);
    }
  } else {
    out.per_thread_ipc.assign(threads, 0.0);
  }
  // Memory-system and predictor rates come from the functional pass,
  // calibrated per cluster by the detailed representatives.  The functional
  // pass maintains full-fidelity cache and predictor state over the *whole*
  // span, so its per-region miss counters track slow drift (e.g. the L2
  // filling over millions of instructions) that a handful of
  // representatives cannot -- a few tolerance-banded clusters chop a
  // drifting miss-rate curve into steps and systematically mis-weight it.
  // But the functional pass only replays the commit path: it never issues
  // the speculative and wrong-path accesses a detailed pipeline does, so
  // its raw counts run systematically low.  Each representative measures
  // that gap for its cluster (detailed count over functional count on the
  // same region), and the gap scales every member's functional counts:
  // the pass supplies the drift *shape*, the representatives the fidelity
  // *scale*, and cycles/IPC still come only from detailed measurement.
  double f_insts = 0.0, f_l1d = 0.0, f_l2 = 0.0;
  double f_branches = 0.0, f_mispredicts = 0.0;
  for (std::uint64_t r = 0; r < region_count; ++r) {
    const obs::RegionProfile& p = profs[r];
    if (p.weight == 0) continue;
    const Calibration& c = cal[out.regions[r].cluster];
    const std::uint64_t len = std::min(r * L + L, span) - r * L;
    const double frac =
        static_cast<double>(p.weight) / static_cast<double>(len);
    f_insts += frac * c.insts * static_cast<double>(p.total_instructions());
    f_l1d += frac * c.l1d * static_cast<double>(p.l1d_misses);
    f_l2 += frac * c.l2 * static_cast<double>(p.l2_misses);
    for (const obs::RegionThreadProfile& t : p.threads) {
      f_branches += frac * c.branches * static_cast<double>(t.branches);
      f_mispredicts += frac * c.mispredicts * static_cast<double>(t.mispredicts);
    }
  }
  if (f_insts > 0.0) {
    out.est_l1d_mpki = 1000.0 * f_l1d / f_insts;
    out.est_l2_mpki = 1000.0 * f_l2 / f_insts;
  }
  if (f_branches > 0.0) out.est_mispredict_rate = f_mispredicts / f_branches;
  if (sum_w > 0.0) {
    const double mean = sum_w_ipc / sum_w;
    double var = 0.0;
    for (const std::uint64_t r : selected) {
      const SampledRegion& sr = out.regions[r];
      const double region_ipc =
          sr.cycles ? static_cast<double>(sr.committed) /
                          static_cast<double>(sr.cycles)
                    : 0.0;
      var += static_cast<double>(sr.cluster_weight) * (region_ipc - mean) *
             (region_ipc - mean);
    }
    var /= sum_w;
    const double n_eff = sum_w2 > 0.0 ? (sum_w * sum_w) / sum_w2 : 1.0;
    out.ipc_ci95 = 1.96 * std::sqrt(var / n_eff);
  }
  // Committed instructions an exact run of the same span would simulate:
  // the instruction stream the functional pass actually carried, end to
  // end (warm-up included).  The pass paces every thread by detailed-probe
  // commit rates, so its per-thread instruction counts mirror the skew an
  // exact any-thread-stop run accumulates -- this is a measured workload
  // size, not an extrapolated estimate.
  out.exact_equivalent_instructions = functional_instructions;
  return out;
}

void write_sampled_json(std::ostream& os, const RunConfig& base,
                        const SampledConfig& sampled, const SampledResult& result,
                        int indent) {
  JsonWriter w(os, indent);
  w.begin_object();
  w.kv("schema", "msim.sampled.v1");
  w.key("config");
  w.begin_object();
  w.key("benchmarks");
  w.begin_array();
  for (const std::string& b : base.benchmarks) w.value(b);
  w.end_array();
  w.kv("scheduler", core::scheduler_kind_name(base.kind));
  w.kv("iq_entries", base.iq_entries);
  w.kv("seed", base.seed);
  w.kv("warmup", base.warmup);
  w.kv("horizon", base.horizon);
  w.kv("region_length", sampled.region_length);
  w.kv("detail_warmup", sampled.detail_warmup);
  w.kv("pilot", sampled.pilot);
  w.kv("interval", base.interval_cycles);
  w.kv("verify", base.verify);
  w.kv("fault_injection", base.faults != nullptr);
  w.end_object();

  w.kv("regions_total", result.regions_total);
  w.kv("regions_detailed", result.regions_detailed);
  w.kv("clusters", result.clusters);
  w.kv("functional_instructions", result.functional_instructions);
  w.kv("detailed_committed", result.detailed_committed);
  w.kv("exact_equivalent_instructions", result.exact_equivalent_instructions);
  w.kv("sampled_digest", hex_u64(result.sampled_digest));

  w.key("estimates");
  w.begin_object();
  w.kv("ipc", result.est_ipc);
  w.kv("ipc_ci95", result.ipc_ci95);
  w.kv("l1d_mpki", result.est_l1d_mpki);
  w.kv("l2_mpki", result.est_l2_mpki);
  w.kv("mispredict_rate", result.est_mispredict_rate);
  w.key("per_thread_ipc");
  w.begin_array();
  for (const double v : result.per_thread_ipc) w.value(v);
  w.end_array();
  w.end_object();

  w.key("regions");
  w.begin_array();
  for (const SampledRegion& r : result.regions) {
    w.begin_object();
    w.kv("index", r.index);
    w.kv("fingerprint", hex_u64(r.fingerprint));
    w.kv("cluster", static_cast<std::uint64_t>(r.cluster));
    w.kv("weight", r.weight);
    w.kv("detailed", r.detailed);
    if (r.detailed) {
      w.kv("cluster_weight", r.cluster_weight);
      w.kv("cycles", r.cycles);
      w.kv("committed", r.committed);
      w.kv("ipc", r.cycles ? static_cast<double>(r.committed) /
                                 static_cast<double>(r.cycles)
                           : 0.0);
      w.kv("l1d_misses", r.l1d_misses);
      w.kv("l2_misses", r.l2_misses);
      w.kv("digest", hex_u64(r.digest));
    }
    w.end_object();
  }
  w.end_array();
  if (!result.intervals.empty() || result.intervals_dropped != 0) {
    w.kv("interval_records", static_cast<std::uint64_t>(result.intervals.size()));
    w.kv("intervals_dropped", result.intervals_dropped);
  }
  w.end_object();
  os << '\n';
}

}  // namespace msim::sim
