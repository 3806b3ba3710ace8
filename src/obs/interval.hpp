// Interval telemetry: periodic delta snapshots of the pipeline's statistics.
//
// The pipeline feeds IntervalEngine a CumulativeSample (running totals of
// every tracked counter) at each interval boundary; the engine diffs it
// against the previous boundary's sample, producing one IntervalRecord per
// interval -- a time-series view of a run that the end-of-run metric
// snapshot (smt::Pipeline::metrics) cannot provide.  Records land in a
// bounded ring (oldest evicted first) and, when a sink is attached, stream
// out as they are captured.
//
// Each record also carries a per-thread *phase fingerprint*: an FNV-1a hash
// of a quantized feature vector (IPC, fetch rate, stall attribution, memory
// intensity).  Identical program phases hash identically, so a simple
// first-seen table assigns stable small phase ids and an online detector
// counts phase changes -- the groundwork for sampled simulation.
//
// All engine state threads through persist::Archive, so interval history,
// phase tables and the stream cursor survive checkpoint/resume
// bit-identically.  See docs/OBSERVABILITY.md, "Interval telemetry".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace msim::persist {
class Archive;
}

namespace msim::obs {

/// JSONL schema identifier written into every interval stream header.
inline constexpr std::string_view kIntervalSchema = "msim.intervals.v1";

/// Phase ids are capped: the table keeps the first kMaxPhases distinct
/// fingerprints; anything later collapses into kPhaseOverflow.
inline constexpr std::uint32_t kMaxPhases = 256;
inline constexpr std::uint32_t kPhaseOverflow = kMaxPhases - 1;

struct IntervalConfig {
  /// Cycles per interval (0 = telemetry off; the hot path then reduces to
  /// one predictable branch per cycle).
  std::uint64_t interval_cycles = 0;
  /// Bounded record ring: oldest records are evicted (and counted as
  /// dropped) once this many are held.
  std::size_t ring_capacity = 4096;
};

/// Running totals at one interval boundary.  The pipeline builds this from
/// its live counters; the engine only ever diffs two of them, so the
/// pipeline's per-cycle hot paths keep their plain increments.
struct CumulativeSample {
  std::uint64_t cycle = 0;  ///< absolute cycle at the boundary
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t issued = 0;
  /// Occupancy integrals (sum over sampled cycles) and sample counts.
  double iq_occ_sum = 0.0;
  std::uint64_t iq_occ_count = 0;
  double dab_occ_sum = 0.0;
  std::uint64_t dab_occ_count = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;

  struct Thread {
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t ndi_blocked_cycles = 0;
    std::uint64_t iq_full_cycles = 0;
    std::uint64_t rob_full_cycles = 0;
    std::uint64_t lsq_full_cycles = 0;
    std::uint64_t fetch_starved_cycles = 0;
    double rob_occ_sum = 0.0;
    std::uint64_t rob_occ_count = 0;
    double lsq_occ_sum = 0.0;
    std::uint64_t lsq_occ_count = 0;
    std::uint64_t loads = 0;  ///< LSQ loads checked (memory intensity)
  };
  std::vector<Thread> threads;
};

/// One thread's slice of one interval.
struct ThreadIntervalSample {
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  double ipc = 0.0;
  double fetch_rate = 0.0;
  std::uint64_t ndi_blocked_cycles = 0;
  std::uint64_t iq_full_cycles = 0;
  std::uint64_t rob_full_cycles = 0;
  std::uint64_t lsq_full_cycles = 0;
  std::uint64_t fetch_starved_cycles = 0;
  double rob_occupancy = 0.0;  ///< mean over the interval
  double lsq_occupancy = 0.0;
  std::uint64_t loads = 0;
  /// FNV-1a hash of the quantized feature vector (see phase_fingerprint).
  std::uint64_t phase_fingerprint = 0;
  /// First-seen index of the fingerprint (kPhaseOverflow once the table
  /// is full).
  std::uint32_t phase_id = 0;
  /// Fingerprint differs from the previous interval's (false on the first
  /// interval after construction or reset).
  bool phase_changed = false;
};

/// One interval's delta snapshot.
struct IntervalRecord {
  std::uint64_t index = 0;        ///< ordinal since construction / reset
  std::uint64_t start_cycle = 0;  ///< absolute, inclusive
  std::uint64_t end_cycle = 0;    ///< absolute, exclusive
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t issued = 0;
  double ipc = 0.0;
  double iq_occupancy = 0.0;   ///< mean over the interval
  double dab_occupancy = 0.0;
  double l1d_mpki = 0.0;       ///< misses per 1000 committed instructions
  double l2_mpki = 0.0;
  double mispredict_rate = 0.0;
  /// Sampled mode (docs/SAMPLING.md): index of the detailed region this
  /// record was measured in.  -1 (the default) means a normal exact run;
  /// the JSON formatter only emits the field when it is set.
  std::int64_t region_id = -1;
  std::vector<ThreadIntervalSample> threads;
};

/// Quantized-feature phase fingerprint of one thread sample over an
/// interval of `cycles`.  Pure and deterministic: the same deltas always
/// hash the same, on any host and at any sweep job count.
[[nodiscard]] std::uint64_t phase_fingerprint(const ThreadIntervalSample& s,
                                              std::uint64_t cycles);

/// Archive codec for one record (shared by the engine's checkpoint state
/// and the sweep journal's RunResult payload).
void io_interval_record(persist::Archive& ar, IntervalRecord& r);

class IntervalEngine {
 public:
  /// Sizes the per-thread phase state; call once before the first capture
  /// (the pipeline constructor does).  interval_cycles == 0 disables.
  void configure(const IntervalConfig& config, unsigned thread_count);

  [[nodiscard]] bool enabled() const noexcept {
    return config_.interval_cycles != 0;
  }
  [[nodiscard]] const IntervalConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(phases_.size());
  }

  /// Captures the interval ending at `cum.cycle`: diffs against the
  /// previous boundary, fingerprints each thread, pushes the record into
  /// the ring and invokes the sink (if any).
  void capture(const CumulativeSample& cum);

  /// Streaming sink, invoked synchronously per captured record.  Not
  /// persisted: the runner re-attaches after a checkpoint restore.
  using Sink = std::function<void(const IntervalRecord&)>;
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  [[nodiscard]] const std::deque<IntervalRecord>& records() const noexcept {
    return ring_;
  }
  /// Records captured since construction / reset_stats (ring eviction does
  /// not decrement this).
  [[nodiscard]] std::uint64_t captured() const noexcept { return captured_; }
  /// Records evicted from the ring since construction / reset_stats.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Stream cursor: records captured since *construction*, never reset --
  /// exactly the number of JSONL record lines a continuously streaming run
  /// would have written.  A resume truncates its .part stream to this many
  /// records before appending (see persist::IntervalStreamWriter).
  [[nodiscard]] std::uint64_t captured_total() const noexcept {
    return captured_total_;
  }

  // Per-thread phase statistics (the thread.N.phase.* metrics).
  [[nodiscard]] std::uint32_t phase_id(unsigned tid) const {
    return phases_.at(tid).current_id;
  }
  [[nodiscard]] std::uint64_t phase_changes(unsigned tid) const {
    return phases_.at(tid).changes;
  }
  [[nodiscard]] std::uint64_t unique_phases(unsigned tid) const {
    return phases_.at(tid).table.size();
  }

  /// Post-warm-up reset: clears the ring, the phase tables and every
  /// stat-visible counter, and rebases the delta baseline to `now` (the
  /// totals immediately after the owning pipeline zeroed its stats).  The
  /// captured_total stream cursor is an I/O cursor, not a statistic, and
  /// survives (like the pipeline's commit digest).
  void reset_stats(const CumulativeSample& now);

  /// Checkpoint support: ring, phase tables, baseline sample and stream
  /// cursor all round-trip (the sink does not).
  void state_io(persist::Archive& ar);

 private:
  struct PhaseState {
    std::vector<std::uint64_t> table;  ///< fingerprint -> first-seen index
    std::uint64_t last_fingerprint = 0;
    std::uint32_t current_id = 0;
    std::uint64_t changes = 0;
    bool have_last = false;
  };

  IntervalConfig config_{};
  CumulativeSample prev_{};
  std::deque<IntervalRecord> ring_;
  std::vector<PhaseState> phases_;
  std::uint64_t captured_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t captured_total_ = 0;
  Sink sink_;
};

/// One record as a compact single-line JSON document (no newline).  The
/// byte-for-byte line format is the msim.intervals.v1 schema contract; the
/// streaming writer (persist::IntervalStreamWriter) appends exactly these.
[[nodiscard]] std::string format_interval_record(const IntervalRecord& record);

/// The stream's header line (no newline): schema id, interval_cycles,
/// thread count.
[[nodiscard]] std::string format_interval_header(const IntervalConfig& config,
                                                 unsigned thread_count);

}  // namespace msim::obs
