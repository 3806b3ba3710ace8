// The dynamic scheduling logic under study: per-thread rename (dispatch)
// buffers feeding an issue queue, under one of five dispatch policies
// (Sections 3, 4 and 6 of the paper):
//
//   kTraditional           in-order dispatch, 2 comparators per IQ entry
//   kTwoOpBlock            in-order dispatch, 1 comparator per IQ entry;
//                          an instruction with two non-ready sources (an
//                          NDI) blocks its whole thread at dispatch
//   kTwoOpBlockOoo         the paper's contribution: HDIs (dispatchable
//                          instructions hidden behind an NDI) may bypass
//                          it and dispatch out of program order
//   kTwoOpBlockOooFiltered the Section-4 ablation: only HDIs *independent*
//                          of every older in-buffer NDI may bypass
//   kTagElimination        related work (paper ref [5], Ernst & Austin):
//                          in-order dispatch into a statically partitioned
//                          queue of 0-/1-/2-comparator entries
//
// Out-of-order dispatch introduces a deadlock risk (Section 4); the
// scheduler implements both remedies: the deadlock-avoidance buffer (DAB)
// and the watchdog timer (the pipeline performs the actual flush).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ring.hpp"
#include "core/fault_hooks.hpp"
#include "core/issue_queue.hpp"
#include "core/sched_types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::core {

// The surrounding pipeline answers the scheduler through an environment
// object.  run_dispatch and run_select are templates on its type, so the
// pipeline's implementation inlines into the per-instruction loops; these
// concepts are the whole contract.

/// Queries answered during the dispatch phase:
///   is_ready(reg)              the physical register's value is available
///                              (or will be bypassed to instructions issuing
///                              this cycle);
///   is_oldest_in_rob(tid, seq) (tid, seq) is the oldest instruction in its
///                              thread's ROB, i.e. every older instruction
///                              of the thread has committed.
template <typename Env>
concept DispatchEnv = requires(const Env& env, PhysReg reg, ThreadId tid, SeqNum seq) {
  { env.is_ready(reg) } -> std::convertible_to<bool>;
  { env.is_oldest_in_rob(tid, seq) } -> std::convertible_to<bool>;
};

/// Receives issue offers during the select phase: try_issue returns true
/// when the instruction was accepted (function unit + memory-order
/// constraints met).
template <typename Env>
concept IssueEnv = requires(Env& env, const SchedInst& inst, bool from_dab) {
  { env.try_issue(inst, from_dab) } -> std::convertible_to<bool>;
};

/// Counters for the paper's dispatch-related statistics.
struct DispatchStats {
  std::uint64_t cycles = 0;
  std::uint64_t dispatched = 0;
  /// Instructions dispatched with 0 / 1 / 2 distinct non-ready sources.
  std::uint64_t dispatched_by_nonready[3] = {0, 0, 0};
  std::uint64_t no_dispatch_cycles = 0;
  /// Section 3: cycles when the dispatch of ALL threads is stalled by
  /// instructions with two non-ready sources (the 2OP_BLOCK pathology).
  std::uint64_t all_threads_ndi_stall_cycles = 0;
  /// Thread-cycles with the thread's next in-order instruction blocked as
  /// an NDI / blocked by a full IQ.
  std::uint64_t ndi_blocked_thread_cycles = 0;
  std::uint64_t iq_full_thread_cycles = 0;
  /// Section 4: of the instructions piled up behind a blocking NDI, how
  /// many are HDIs (would be dispatchable)?  Sampled every blocked cycle.
  std::uint64_t behind_ndi_examined = 0;
  std::uint64_t behind_ndi_hdis = 0;
  /// Out-of-order dispatches (bypassed at least one NDI), and how many of
  /// those were directly or transitively dependent on a bypassed NDI.
  std::uint64_t ooo_dispatches = 0;
  std::uint64_t ooo_dispatches_dependent = 0;
  /// Ablation: HDIs whose dispatch the filtered policy suppressed.
  std::uint64_t filtered_suppressed = 0;
  std::uint64_t dab_inserts = 0;
  std::uint64_t dab_issues = 0;
  std::uint64_t watchdog_flushes = 0;
  /// Fault injection (src/robust/): classification decisions forced to
  /// NDI, IQ admissions denied by transient exhaustion, and instructions
  /// dropped by the sabotage fault.  All zero on a fault-free run.
  std::uint64_t fault_forced_ndis = 0;
  std::uint64_t fault_iq_denials = 0;
  std::uint64_t fault_dropped_dispatches = 0;

  [[nodiscard]] double all_stall_fraction() const noexcept {
    return cycles ? static_cast<double>(all_threads_ndi_stall_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  [[nodiscard]] double hdi_fraction_behind_ndi() const noexcept {
    return behind_ndi_examined ? static_cast<double>(behind_ndi_hdis) /
                                     static_cast<double>(behind_ndi_examined)
                               : 0.0;
  }
  [[nodiscard]] double ooo_dependent_fraction() const noexcept {
    return ooo_dispatches ? static_cast<double>(ooo_dispatches_dependent) /
                                static_cast<double>(ooo_dispatches)
                          : 0.0;
  }
};

/// DispatchStats's one field list, shared by checkpoints and sweep journals.
void io_dispatch_stats(persist::Archive& ar, DispatchStats& s);

/// Result of one dispatch phase.
struct DispatchCycleResult {
  std::uint32_t dispatched = 0;
  bool watchdog_fired = false;
};

class Scheduler {
 public:
  Scheduler(const SchedulerConfig& config, unsigned thread_count,
            unsigned dispatch_width, unsigned issue_width);

  // ---- rename side -------------------------------------------------------
  [[nodiscard]] bool buffer_has_space(ThreadId tid) const;
  [[nodiscard]] std::uint32_t buffer_size(ThreadId tid) const;
  /// Inserts a renamed instruction; program order per thread is enforced.
  void insert(const SchedInst& inst);

  // ---- per-cycle phases --------------------------------------------------
  /// Dispatch phase: moves instructions from rename buffers into the IQ
  /// (and possibly the DAB) under the configured policy.
  template <DispatchEnv Env>
  DispatchCycleResult run_dispatch(Cycle now, const Env& env);

  /// Wakeup: result-tag broadcast into the IQ CAM.
  void broadcast(PhysReg tag) { iq_.broadcast(tag); }

  /// Select phase: offers ready instructions (DAB first, then the IQ in
  /// oldest-first order) to `env`, up to `issue_width` acceptances.
  /// Returns the number issued.
  template <IssueEnv Env>
  unsigned run_select(Cycle now, Env& env);

  /// Squashes all scheduler state (watchdog flush path).
  void flush() noexcept;

  /// Partial squash (FLUSH fetch policy): removes every instruction of
  /// `tid` younger than `after_seq` from the rename buffer, the IQ and the
  /// DAB.  Rename-order expectations are reset for the thread.
  void squash_younger(ThreadId tid, SeqNum after_seq);

  /// Occupancy bookkeeping; call once per simulated cycle.
  void tick_stats() noexcept { iq_.tick_stats(); }

  /// Zeroes dispatch and IQ statistics (post-warm-up reset).
  void reset_stats() {
    dstats_ = DispatchStats{};
    iq_.reset_stats();
  }

  // ---- observability -----------------------------------------------------
  /// Appends every scheduler metric to `out` under `prefix` (e.g. "scheduler.").
  void append_metrics(std::vector<obs::MetricSnapshot>& out,
                      const std::string& prefix) const;

  /// Routes dispatch-side lifecycle events (dispatch, DAB insert) into the
  /// tracer; nullptr (the default) disables recording.
  void set_tracer(obs::InstTracer* tracer) noexcept { tracer_ = tracer; }

  /// Consults `hooks` at readiness-classification and IQ-admission points;
  /// nullptr (the default) is the fault-free machine.  Not owned; must
  /// outlive the scheduler.
  void set_fault_hooks(const FaultHooks* hooks) noexcept { faults_ = hooks; }

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const IssueQueue& iq() const noexcept { return iq_; }
  [[nodiscard]] const DispatchStats& dispatch_stats() const noexcept { return dstats_; }
  [[nodiscard]] bool dab_occupied(ThreadId tid) const;
  /// The instruction parked in `tid`'s DAB slot, if any (invariant checks).
  [[nodiscard]] const std::optional<SchedInst>& dab_inst(ThreadId tid) const {
    return dab_.at(tid);
  }
  /// Instructions currently parked in the deadlock-avoidance buffer.
  [[nodiscard]] std::uint32_t dab_occupancy() const noexcept;
  /// Why `tid` could not dispatch its next instruction in the most recent
  /// dispatch phase (kNone after a successful dispatch).
  [[nodiscard]] DispatchBlock block_reason(ThreadId tid) const {
    return block_reason_.at(tid);
  }
  /// Total instructions held (buffers + IQ + DAB); used by ICOUNT fetch.
  [[nodiscard]] std::uint32_t held_instructions(ThreadId tid) const;

  /// Checkpoint support: rename buffers (logical order), DAB, program-order
  /// guards, watchdog countdown, round-robin origin, statistics and the
  /// issue queue.  Per-dispatch-phase scratch (scan state, ready scratch)
  /// is rebuilt each cycle and not serialized.
  void state_io(persist::Archive& ar);

 private:
  struct ScanState {
    std::uint32_t pos = 0;        ///< next buffer index to examine
    std::uint32_t examined = 0;
    bool exhausted = false;
    bool saw_iq_full = false;
    bool saw_ndi = false;
    /// Destinations of bypassed NDIs and of instructions (dispatched or
    /// suppressed) that transitively depend on one.
    std::vector<PhysReg> tainted;

    /// Per-cycle reset that keeps tainted's capacity (this runs for every
    /// thread every cycle; reallocating the vector each time showed up in
    /// profiles).
    void reset() noexcept {
      pos = 0;
      examined = 0;
      exhausted = false;
      saw_iq_full = false;
      saw_ndi = false;
      tainted.clear();
    }
  };

  /// Distinct non-ready register sources of `inst` under `env`.
  template <DispatchEnv Env>
  [[nodiscard]] static unsigned non_ready_sources(const SchedInst& inst,
                                                  const Env& env);
  /// non_ready_sources with the forced-NDI fault folded in (dispatch-side
  /// classification only; the DAB-rescue readiness check stays truthful).
  template <DispatchEnv Env>
  [[nodiscard]] unsigned classify_non_ready(const SchedInst& inst, const Env& env,
                                            Cycle now);
  /// True when the IQ has no free entry for `non_ready` comparators, or a
  /// transient-exhaustion fault pretends so this cycle.
  [[nodiscard]] bool iq_denies(unsigned non_ready, Cycle now) {
    if (!iq_.has_entry_for(non_ready)) return true;
    if (faults_ && faults_->iq_exhausted(now)) {
      ++dstats_.fault_iq_denials;
      return true;
    }
    return false;
  }
  [[nodiscard]] static bool reads_any(const SchedInst& inst,
                                      const std::vector<PhysReg>& regs) {
    for (PhysReg src : inst.src) {
      if (src == kNoPhysReg) continue;
      if (std::find(regs.begin(), regs.end(), src) != regs.end()) return true;
    }
    return false;
  }

  /// Round-robin successor of thread `t` (increment and wrap, no division).
  [[nodiscard]] unsigned next_thread(unsigned t) const noexcept {
    return t + 1 == thread_count_ ? 0 : t + 1;
  }

  /// Attempts one dispatch for thread `tid`; returns true on success.
  template <DispatchEnv Env>
  bool try_dispatch_one(ThreadId tid, Cycle now, const Env& env);
  template <DispatchEnv Env>
  void dispatch_into_iq(const SchedInst& inst, const Env& env, Cycle now);
  /// Samples the HDI-behind-NDI statistic for a thread blocked at its head.
  template <DispatchEnv Env>
  void sample_behind_ndi(ThreadId tid, const Env& env);

  SchedulerConfig config_;
  unsigned thread_count_;
  unsigned dispatch_width_;
  unsigned issue_width_;

  IssueQueue iq_;
  std::vector<Ring<SchedInst>> buffers_;              ///< per thread, program order
  std::vector<std::optional<SchedInst>> dab_;         ///< one slot per thread
  std::uint32_t dab_live_ = 0;                        ///< occupied DAB slots
  std::vector<ScanState> scan_;                       ///< per thread, per cycle
  std::vector<DispatchBlock> block_reason_;           ///< per thread, per cycle
  std::vector<SeqNum> last_inserted_seq_;             ///< program-order check
  std::vector<std::uint8_t> insert_seq_valid_;        ///< last_inserted_seq_ meaningful?
  std::vector<std::uint32_t> ready_scratch_;

  std::uint32_t watchdog_remaining_;
  unsigned rr_start_ = 0;  ///< rotating round-robin origin
  DispatchStats dstats_;
  obs::InstTracer* tracer_ = nullptr;     ///< not owned; nullptr = tracing off
  const FaultHooks* faults_ = nullptr;    ///< not owned; nullptr = fault-free
};

// ---- dispatch and select (templates on the pipeline's environment) --------

template <DispatchEnv Env>
unsigned Scheduler::non_ready_sources(const SchedInst& inst, const Env& env) {
  unsigned count = 0;
  PhysReg first_unready = kNoPhysReg;
  for (PhysReg src : inst.src) {
    if (src == kNoPhysReg || env.is_ready(src)) continue;
    if (src == first_unready) continue;  // one comparator covers both slots
    first_unready = src;
    ++count;
  }
  return count;
}

template <DispatchEnv Env>
unsigned Scheduler::classify_non_ready(const SchedInst& inst, const Env& env,
                                       Cycle now) {
  if (faults_ && faults_->force_ndi(inst.tid, inst.seq, now)) {
    ++dstats_.fault_forced_ndis;
    return isa::kMaxSources;
  }
  return non_ready_sources(inst, env);
}

template <DispatchEnv Env>
void Scheduler::dispatch_into_iq(const SchedInst& inst, const Env& env, Cycle now) {
  // Collect the distinct non-ready tags the IQ entry must watch.
  PhysReg waiting[isa::kMaxSources];
  std::size_t n = 0;
  for (PhysReg src : inst.src) {
    if (src == kNoPhysReg || env.is_ready(src)) continue;
    bool dup = false;
    for (std::size_t i = 0; i < n; ++i) dup = dup || waiting[i] == src;
    if (!dup) {
      MSIM_CHECK(n < isa::kMaxSources);
      waiting[n] = src;
      ++n;
    }
  }
  iq_.dispatch(inst, {waiting, n}, now);
}

template <DispatchEnv Env>
void Scheduler::sample_behind_ndi(ThreadId tid, const Env& env) {
  const auto& buf = buffers_[tid];
  // buf[0] is the blocking NDI; classify everything piled up behind it.
  // This feeds the Section-4 observation that ~90% of such instructions
  // are HDIs.  Note HDI status here considers only the comparator
  // constraint, not momentary IQ occupancy, matching the paper's usage.
  for (std::uint32_t i = 1; i < buf.size(); ++i) {
    ++dstats_.behind_ndi_examined;
    if (non_ready_sources(buf[i], env) <= 1) ++dstats_.behind_ndi_hdis;
  }
}
template <DispatchEnv Env>
bool Scheduler::try_dispatch_one(ThreadId tid, Cycle now, const Env& env) {
  auto& buf = buffers_[tid];
  ScanState& scan = scan_[tid];
  if (scan.exhausted) return false;
  if (buf.empty()) {
    block_reason_[tid] = DispatchBlock::kEmptyBuffer;
    scan.exhausted = true;
    return false;
  }

  if (!ooo_dispatch(config_.kind)) {
    // In-order policies: only the head is ever considered.  An instruction
    // with more non-ready sources than any entry class can watch is an NDI
    // in the 2OP_BLOCK sense (it blocks until an operand arrives); one that
    // merely lacks a *free* adequate entry right now waits on queue
    // occupancy (the tag-elimination and traditional cases).
    const SchedInst& head = buf.front();
    const unsigned non_ready = classify_non_ready(head, env, now);
    if (non_ready > iq_.max_comparators()) {
      if (block_reason_[tid] != DispatchBlock::kTwoNonReady) {
        block_reason_[tid] = DispatchBlock::kTwoNonReady;
        sample_behind_ndi(tid, env);  // once per blocked cycle
      }
      scan.exhausted = true;
      return false;
    }
    if (iq_denies(non_ready, now)) {
      block_reason_[tid] = DispatchBlock::kIqFull;
      scan.exhausted = true;
      return false;
    }
    if (faults_ && faults_->drop_dispatch(tid, head.seq, now)) {
      ++dstats_.fault_dropped_dispatches;
      buf.pop_front();
      block_reason_[tid] = DispatchBlock::kNone;
      return true;
    }
    dispatch_into_iq(head, env, now);
    ++dstats_.dispatched_by_nonready[std::min(non_ready, 2u)];
    if (tracer_) tracer_->record(now, tid, head.seq, obs::TraceStage::kDispatch);
    buf.pop_front();
    block_reason_[tid] = DispatchBlock::kNone;
    return true;
  }

  // Out-of-order dispatch: scan past NDIs up to the configured depth.
  const bool filtered = config_.kind == SchedulerKind::kTwoOpBlockOooFiltered;
  const std::uint32_t depth = config_.effective_scan_depth();
  while (scan.pos < buf.size() && scan.examined < depth) {
    const SchedInst& cand = buf[scan.pos];
    const unsigned non_ready = classify_non_ready(cand, env, now);
    const bool tainted = reads_any(cand, scan.tainted);
    if (non_ready <= iq_.max_comparators() && iq_denies(non_ready, now)) {
      scan.saw_iq_full = true;
      // Deadlock avoidance (Section 4): when the thread's oldest ROB
      // instruction cannot get an IQ entry, park it in the DAB, from
      // which it will issue with priority.  It is the oldest in the ROB,
      // so all of its sources are ready by definition.
      if (config_.deadlock == DeadlockMode::kAvoidanceBuffer && !dab_[tid] &&
          env.is_oldest_in_rob(tid, buf.front().seq)) {
        MSIM_CHECK(non_ready_sources(buf.front(), env) == 0);
        dab_[tid] = buf.front();
        ++dab_live_;
        buf.pop_front();
        if (scan.pos > 0) --scan.pos;
        ++dstats_.dab_inserts;
        if (tracer_) {
          tracer_->record(now, tid, dab_[tid]->seq, obs::TraceStage::kDabInsert);
        }
        block_reason_[tid] = DispatchBlock::kNone;
        return true;  // consumed a dispatch slot
      }
      block_reason_[tid] = DispatchBlock::kIqFull;
      scan.exhausted = true;
      return false;
    }
    if (non_ready > iq_.max_comparators()) {
      // NDI: bypass it; its destination taints dependents.
      scan.saw_ndi = true;
      if (cand.dest != kNoPhysReg) scan.tainted.push_back(cand.dest);
      ++scan.pos;
      ++scan.examined;
      continue;
    }
    if (filtered && tainted) {
      // Idealized filtering: an HDI dependent (directly or transitively)
      // on a bypassed NDI is held back.
      ++dstats_.filtered_suppressed;
      if (cand.dest != kNoPhysReg) scan.tainted.push_back(cand.dest);
      ++scan.pos;
      ++scan.examined;
      continue;
    }

    // Dispatchable: take it.
    if (faults_ && faults_->drop_dispatch(tid, cand.seq, now)) {
      ++dstats_.fault_dropped_dispatches;
      buf.erase_at(scan.pos);
      block_reason_[tid] = DispatchBlock::kNone;
      return true;
    }
    if (scan.saw_ndi) {
      ++dstats_.ooo_dispatches;
      if (tainted) {
        ++dstats_.ooo_dispatches_dependent;
        if (cand.dest != kNoPhysReg) scan.tainted.push_back(cand.dest);
      }
    }
    dispatch_into_iq(cand, env, now);
    ++dstats_.dispatched_by_nonready[std::min(non_ready, 2u)];
    if (tracer_) {
      tracer_->record(now, tid, cand.seq, obs::TraceStage::kDispatch,
                      scan.saw_ndi ? obs::kTraceFlagOooBypass : std::uint8_t{0});
    }
    ++scan.examined;
    buf.erase_at(scan.pos);  // pos now indexes the next entry
    block_reason_[tid] = DispatchBlock::kNone;
    return true;
  }

  scan.exhausted = true;
  if (scan.saw_ndi && block_reason_[tid] == DispatchBlock::kNone) {
    block_reason_[tid] = DispatchBlock::kTwoNonReady;
  }
  return false;
}

template <DispatchEnv Env>
DispatchCycleResult Scheduler::run_dispatch(Cycle now, const Env& env) {
  ++dstats_.cycles;
  for (ThreadId t = 0; t < thread_count_; ++t) {
    scan_[t].reset();
    block_reason_[t] = DispatchBlock::kNone;
  }

  DispatchCycleResult result;
  rr_start_ = next_thread(rr_start_);
  bool progress = true;
  while (result.dispatched < dispatch_width_ && progress) {
    progress = false;
    unsigned t = rr_start_;
    for (unsigned i = 0; i < thread_count_ && result.dispatched < dispatch_width_;
         ++i, t = next_thread(t)) {
      const auto tid = static_cast<ThreadId>(t);
      if (try_dispatch_one(tid, now, env)) {
        ++result.dispatched;
        progress = true;
      }
    }
  }
  dstats_.dispatched += result.dispatched;

  // Classify the cycle for the Section-3 stall statistic: "the dispatch of
  // all threads stalls due to all threads having instructions with two
  // non-ready sources".  Every thread must actually hold an instruction
  // blocked by the comparator constraint -- a thread with an empty buffer
  // is fetch-starved, not stalled by the 2OP_BLOCK rule.
  if (result.dispatched == 0) {
    ++dstats_.no_dispatch_cycles;
    bool all_ndi = true;
    for (ThreadId t = 0; t < thread_count_; ++t) {
      all_ndi = all_ndi && block_reason_[t] == DispatchBlock::kTwoNonReady;
    }
    if (all_ndi) ++dstats_.all_threads_ndi_stall_cycles;
  }
  for (ThreadId t = 0; t < thread_count_; ++t) {
    if (block_reason_[t] == DispatchBlock::kTwoNonReady) ++dstats_.ndi_blocked_thread_cycles;
    if (block_reason_[t] == DispatchBlock::kIqFull) ++dstats_.iq_full_thread_cycles;
  }

  // Watchdog (Section 4): counts down on dispatch-free cycles while work is
  // waiting; any dispatch resets it.
  if (config_.deadlock == DeadlockMode::kWatchdog && ooo_dispatch(config_.kind)) {
    bool work_waiting = false;
    for (const auto& buf : buffers_) work_waiting = work_waiting || !buf.empty();
    if (result.dispatched > 0 || !work_waiting) {
      watchdog_remaining_ = config_.watchdog_timeout;
    } else if (watchdog_remaining_ == 0 || --watchdog_remaining_ == 0) {
      result.watchdog_fired = true;
      ++dstats_.watchdog_flushes;
      watchdog_remaining_ = config_.watchdog_timeout;
    }
  }
  return result;
}

template <IssueEnv Env>
unsigned Scheduler::run_select(Cycle now, Env& env) {
  unsigned issued = 0;
  // The DAB is empty on the overwhelming majority of cycles; dab_live_
  // makes that the zero-work case.
  if (dab_live_ > 0) {
    unsigned t = rr_start_;
    for (unsigned i = 0; i < thread_count_ && issued < issue_width_;
         ++i, t = next_thread(t)) {
      const auto tid = static_cast<ThreadId>(t);
      if (!dab_[tid]) continue;
      if (env.try_issue(*dab_[tid], /*from_dab=*/true)) {
        dab_[tid].reset();
        --dab_live_;
        ++issued;
        ++dstats_.dab_issues;
      }
    }
    // The paper's chosen DAB variant disables IQ selection while the DAB
    // holds instructions ("instructions in this buffer ... simply take
    // precedence over the instructions in the IQ").
    if (config_.dab_exclusive) return issued;
  }

  ready_scratch_.clear();
  iq_.collect_ready(ready_scratch_);
  for (std::uint32_t slot : ready_scratch_) {
    if (issued >= issue_width_) break;
    if (env.try_issue(iq_.at(slot), /*from_dab=*/false)) {
      iq_.issue(slot, now);
      ++issued;
    }
  }
  return issued;
}

}  // namespace msim::core
