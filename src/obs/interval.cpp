#include "obs/interval.hpp"

#include <cmath>
#include <sstream>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"

namespace msim::obs {

namespace {

/// Quantizes a rate in [0, ~16) to 1/16th steps, saturating at 255.  Coarse
/// enough that run-to-run noise inside one program phase maps to the same
/// bucket, fine enough that distinct phases do not.
std::uint8_t q16(double x) noexcept {
  if (!(x > 0.0)) return 0;
  const double scaled = std::nearbyint(x * 16.0);
  return scaled >= 255.0 ? std::uint8_t{255} : static_cast<std::uint8_t>(scaled);
}

/// Quantizes an occupancy (entries) to whole entries, saturating at 255.
std::uint8_t q_occ(double x) noexcept {
  if (!(x > 0.0)) return 0;
  const double scaled = std::nearbyint(x);
  return scaled >= 255.0 ? std::uint8_t{255} : static_cast<std::uint8_t>(scaled);
}

void io_cumulative_thread(persist::Archive& ar, CumulativeSample::Thread& t) {
  ar.io(t.committed);
  ar.io(t.fetched);
  ar.io(t.ndi_blocked_cycles);
  ar.io(t.iq_full_cycles);
  ar.io(t.rob_full_cycles);
  ar.io(t.lsq_full_cycles);
  ar.io(t.fetch_starved_cycles);
  ar.io(t.rob_occ_sum);
  ar.io(t.rob_occ_count);
  ar.io(t.lsq_occ_sum);
  ar.io(t.lsq_occ_count);
  ar.io(t.loads);
}

void io_cumulative_sample(persist::Archive& ar, CumulativeSample& s) {
  ar.io(s.cycle);
  ar.io(s.committed);
  ar.io(s.fetched);
  ar.io(s.dispatched);
  ar.io(s.issued);
  ar.io(s.iq_occ_sum);
  ar.io(s.iq_occ_count);
  ar.io(s.dab_occ_sum);
  ar.io(s.dab_occ_count);
  ar.io(s.l1d_misses);
  ar.io(s.l2_misses);
  ar.io(s.branches);
  ar.io(s.mispredicts);
  ar.io_sequence(s.threads, io_cumulative_thread);
}

/// Mean of an occupancy-integral delta; 0 when no cycles were sampled.
double mean_delta(double sum_now, double sum_prev, std::uint64_t n_now,
                  std::uint64_t n_prev) noexcept {
  const std::uint64_t n = n_now - n_prev;
  return n ? (sum_now - sum_prev) / static_cast<double>(n) : 0.0;
}

}  // namespace

std::uint64_t phase_fingerprint(const ThreadIntervalSample& s,
                                std::uint64_t cycles) {
  const double c = cycles ? static_cast<double>(cycles) : 1.0;
  const std::uint8_t features[] = {
      q16(s.ipc),
      q16(s.fetch_rate),
      q16(static_cast<double>(s.ndi_blocked_cycles) / c),
      q16(static_cast<double>(s.iq_full_cycles) / c),
      q16(static_cast<double>(s.rob_full_cycles) / c),
      q16(static_cast<double>(s.lsq_full_cycles) / c),
      q16(static_cast<double>(s.fetch_starved_cycles) / c),
      q_occ(s.rob_occupancy),
      q_occ(s.lsq_occupancy),
      q16(s.committed ? static_cast<double>(s.loads) /
                            static_cast<double>(s.committed)
                      : 0.0),
  };
  Fnv1a f;
  for (const std::uint8_t b : features) f.byte(b);
  return f.h;
}

void io_interval_record(persist::Archive& ar, IntervalRecord& r) {
  ar.io(r.index);
  ar.io(r.start_cycle);
  ar.io(r.end_cycle);
  ar.io(r.committed);
  ar.io(r.fetched);
  ar.io(r.dispatched);
  ar.io(r.issued);
  ar.io(r.ipc);
  ar.io(r.iq_occupancy);
  ar.io(r.dab_occupancy);
  ar.io(r.l1d_mpki);
  ar.io(r.l2_mpki);
  ar.io(r.mispredict_rate);
  ar.io(r.region_id);
  ar.io_sequence(r.threads, [](persist::Archive& a, ThreadIntervalSample& t) {
    a.io(t.committed);
    a.io(t.fetched);
    a.io(t.ipc);
    a.io(t.fetch_rate);
    a.io(t.ndi_blocked_cycles);
    a.io(t.iq_full_cycles);
    a.io(t.rob_full_cycles);
    a.io(t.lsq_full_cycles);
    a.io(t.fetch_starved_cycles);
    a.io(t.rob_occupancy);
    a.io(t.lsq_occupancy);
    a.io(t.loads);
    a.io(t.phase_fingerprint);
    a.io(t.phase_id);
    a.io(t.phase_changed);
  });
}

// ---- IntervalEngine ---------------------------------------------------------

void IntervalEngine::configure(const IntervalConfig& config,
                               unsigned thread_count) {
  MSIM_CHECK(config.ring_capacity >= 1);
  config_ = config;
  phases_.assign(thread_count, PhaseState{});
  prev_ = CumulativeSample{};
  prev_.threads.resize(thread_count);
  ring_.clear();
  captured_ = dropped_ = captured_total_ = 0;
}

void IntervalEngine::capture(const CumulativeSample& cum) {
  MSIM_CHECK(cum.threads.size() == phases_.size());
  MSIM_CHECK(cum.cycle >= prev_.cycle);
  const std::uint64_t cycles = cum.cycle - prev_.cycle;
  const double c = cycles ? static_cast<double>(cycles) : 1.0;

  IntervalRecord r;
  r.index = captured_;
  r.start_cycle = prev_.cycle;
  r.end_cycle = cum.cycle;
  r.committed = cum.committed - prev_.committed;
  r.fetched = cum.fetched - prev_.fetched;
  r.dispatched = cum.dispatched - prev_.dispatched;
  r.issued = cum.issued - prev_.issued;
  r.ipc = static_cast<double>(r.committed) / c;
  r.iq_occupancy =
      mean_delta(cum.iq_occ_sum, prev_.iq_occ_sum, cum.iq_occ_count,
                 prev_.iq_occ_count);
  r.dab_occupancy =
      mean_delta(cum.dab_occ_sum, prev_.dab_occ_sum, cum.dab_occ_count,
                 prev_.dab_occ_count);
  const auto mpki = [&r](std::uint64_t now, std::uint64_t prev) {
    return r.committed ? 1000.0 * static_cast<double>(now - prev) /
                             static_cast<double>(r.committed)
                       : 0.0;
  };
  r.l1d_mpki = mpki(cum.l1d_misses, prev_.l1d_misses);
  r.l2_mpki = mpki(cum.l2_misses, prev_.l2_misses);
  const std::uint64_t branches = cum.branches - prev_.branches;
  r.mispredict_rate =
      branches ? static_cast<double>(cum.mispredicts - prev_.mispredicts) /
                     static_cast<double>(branches)
               : 0.0;

  r.threads.resize(cum.threads.size());
  for (std::size_t t = 0; t < cum.threads.size(); ++t) {
    const CumulativeSample::Thread& now = cum.threads[t];
    const CumulativeSample::Thread& prev = prev_.threads[t];
    ThreadIntervalSample& s = r.threads[t];
    s.committed = now.committed - prev.committed;
    s.fetched = now.fetched - prev.fetched;
    s.ipc = static_cast<double>(s.committed) / c;
    s.fetch_rate = static_cast<double>(s.fetched) / c;
    s.ndi_blocked_cycles = now.ndi_blocked_cycles - prev.ndi_blocked_cycles;
    s.iq_full_cycles = now.iq_full_cycles - prev.iq_full_cycles;
    s.rob_full_cycles = now.rob_full_cycles - prev.rob_full_cycles;
    s.lsq_full_cycles = now.lsq_full_cycles - prev.lsq_full_cycles;
    s.fetch_starved_cycles =
        now.fetch_starved_cycles - prev.fetch_starved_cycles;
    s.rob_occupancy = mean_delta(now.rob_occ_sum, prev.rob_occ_sum,
                                 now.rob_occ_count, prev.rob_occ_count);
    s.lsq_occupancy = mean_delta(now.lsq_occ_sum, prev.lsq_occ_sum,
                                 now.lsq_occ_count, prev.lsq_occ_count);
    s.loads = now.loads - prev.loads;

    s.phase_fingerprint = phase_fingerprint(s, cycles);
    PhaseState& ps = phases_[t];
    std::uint32_t id = kPhaseOverflow;
    bool known = false;
    for (std::size_t i = 0; i < ps.table.size(); ++i) {
      if (ps.table[i] == s.phase_fingerprint) {
        id = static_cast<std::uint32_t>(i);
        known = true;
        break;
      }
    }
    if (!known && ps.table.size() < kMaxPhases) {
      id = static_cast<std::uint32_t>(ps.table.size());
      ps.table.push_back(s.phase_fingerprint);
    }
    s.phase_id = id;
    s.phase_changed = ps.have_last && ps.last_fingerprint != s.phase_fingerprint;
    if (s.phase_changed) ++ps.changes;
    ps.last_fingerprint = s.phase_fingerprint;
    ps.have_last = true;
    ps.current_id = id;
  }

  ring_.push_back(std::move(r));
  while (ring_.size() > config_.ring_capacity) {
    ring_.pop_front();
    ++dropped_;
  }
  ++captured_;
  ++captured_total_;
  prev_ = cum;
  if (sink_) sink_(ring_.back());
}

void IntervalEngine::reset_stats(const CumulativeSample& now) {
  MSIM_CHECK(now.threads.size() == phases_.size());
  ring_.clear();
  captured_ = 0;
  dropped_ = 0;
  for (PhaseState& ps : phases_) ps = PhaseState{};
  // Rebase the delta baseline: the owning pipeline just zeroed its stats,
  // so the next interval's deltas start from these (mostly zero) totals.
  // captured_total_ survives -- it is the JSONL stream cursor.
  prev_ = now;
}

void IntervalEngine::state_io(persist::Archive& ar) {
  ar.section("interval");
  std::uint64_t interval_cycles = config_.interval_cycles;
  std::uint64_t ring_capacity = config_.ring_capacity;
  ar.io(interval_cycles);
  ar.io(ring_capacity);
  if (!ar.saving() && (interval_cycles != config_.interval_cycles ||
                       ring_capacity != config_.ring_capacity)) {
    throw persist::PersistError(
        "checkpoint: interval configuration mismatch (saved interval=" +
        std::to_string(interval_cycles) + " ring=" +
        std::to_string(ring_capacity) + ", this run has interval=" +
        std::to_string(config_.interval_cycles) + " ring=" +
        std::to_string(config_.ring_capacity) + ")");
  }
  io_cumulative_sample(ar, prev_);
  ar.io_sequence(ring_, io_interval_record);
  ar.io_sequence(phases_, [](persist::Archive& a, PhaseState& ps) {
    a.io(ps.table);
    a.io(ps.last_fingerprint);
    a.io(ps.current_id);
    a.io(ps.changes);
    a.io(ps.have_last);
  });
  ar.io(captured_);
  ar.io(dropped_);
  ar.io(captured_total_);
}

// ---- JSONL formatting (msim.intervals.v1) -----------------------------------

std::string format_interval_header(const IntervalConfig& config,
                                   unsigned thread_count) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("schema", kIntervalSchema);
  w.kv("interval_cycles", config.interval_cycles);
  w.kv("threads", std::uint64_t{thread_count});
  w.end_object();
  return os.str();
}

std::string format_interval_record(const IntervalRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("i", r.index);
  w.kv("start", r.start_cycle);
  w.kv("end", r.end_cycle);
  w.kv("committed", r.committed);
  w.kv("fetched", r.fetched);
  w.kv("dispatched", r.dispatched);
  w.kv("issued", r.issued);
  w.kv("ipc", r.ipc);
  w.kv("iq_occ", r.iq_occupancy);
  w.kv("dab_occ", r.dab_occupancy);
  w.kv("l1d_mpki", r.l1d_mpki);
  w.kv("l2_mpki", r.l2_mpki);
  w.kv("mispredict_rate", r.mispredict_rate);
  if (r.region_id >= 0) w.kv("region", static_cast<std::uint64_t>(r.region_id));
  w.key("threads");
  w.begin_array();
  for (const ThreadIntervalSample& t : r.threads) {
    w.begin_object();
    w.kv("committed", t.committed);
    w.kv("fetched", t.fetched);
    w.kv("ipc", t.ipc);
    w.kv("fetch_rate", t.fetch_rate);
    w.kv("ndi_blocked", t.ndi_blocked_cycles);
    w.kv("iq_full", t.iq_full_cycles);
    w.kv("rob_full", t.rob_full_cycles);
    w.kv("lsq_full", t.lsq_full_cycles);
    w.kv("fetch_starved", t.fetch_starved_cycles);
    w.kv("rob_occ", t.rob_occupancy);
    w.kv("lsq_occ", t.lsq_occupancy);
    w.kv("loads", t.loads);
    w.kv("fp", hex_u64(t.phase_fingerprint));
    w.kv("phase", t.phase_id);
    w.kv("changed", t.phase_changed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

}  // namespace msim::obs
