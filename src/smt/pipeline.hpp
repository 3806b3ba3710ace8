// The SMT out-of-order pipeline: an execution-driven (synthetic-trace)
// cycle-level model of the processor in Table 1 of the paper.
//
// Stage order within one simulated cycle (younger stages first so that an
// instruction spends at least one cycle in each structure):
//
//   commit -> wakeup(broadcast) -> select/issue -> dispatch -> rename -> fetch
//
// Threads share the issue queue, physical registers, function units and
// caches; each thread has its own rename map, ROB, LSQ, fetch queue and
// gshare predictor, exactly as in the paper's M-Sim configuration.
#pragma once

#include <cstdint>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/predictor.hpp"
#include "common/hash.hpp"
#include "common/ring.hpp"
#include "core/scheduler.hpp"
#include "mem/hierarchy.hpp"
#include "obs/interval.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "smt/broadcast_schedule.hpp"
#include "smt/fu.hpp"
#include "smt/lsq.hpp"
#include "smt/machine_config.hpp"
#include "smt/rename.hpp"
#include "smt/rob.hpp"
#include "trace/generator.hpp"
#include "trace/shared_stream.hpp"

namespace msim::robust {
class InvariantChecker;  // friend of Pipeline; see src/robust/invariant.hpp
}

namespace msim {
class ThreadPool;  // optional producer pool for run_functional
}

namespace msim::persist {
class Archive;
}

namespace msim::smt {

/// Thrown by Pipeline::run when the simulator-level hang watchdog fires:
/// no thread committed anything for MachineConfig::hang_cycles consecutive
/// cycles, so the architectural deadlock remedies (DAB / watchdog flush)
/// have evidently failed and the run would spin forever.
class NoForwardProgress final : public std::runtime_error {
 public:
  NoForwardProgress(const std::string& what, Cycle at_cycle, Cycle stalled_for)
      : std::runtime_error(what), at_cycle_(at_cycle), stalled_for_(stalled_for) {}
  /// Absolute machine cycle at which the hang was declared.
  [[nodiscard]] Cycle at_cycle() const noexcept { return at_cycle_; }
  /// Consecutive commit-free cycles observed.
  [[nodiscard]] Cycle stalled_for() const noexcept { return stalled_for_; }

 private:
  Cycle at_cycle_;
  Cycle stalled_for_;
};

/// Aggregate per-run counters not owned by a sub-component.
struct PipelineStats {
  std::uint64_t issued = 0;
  std::uint64_t load_issue_blocked = 0;  ///< LSQ disambiguation rejections
  std::uint64_t fetch_icache_stall_cycles = 0;
  std::uint64_t watchdog_flushed_instructions = 0;
  /// STALL/FLUSH fetch policies: thread-fetch opportunities gated by an
  /// outstanding L2 miss, FLUSH squashes performed, instructions squashed.
  std::uint64_t fetch_l2_gated = 0;
  std::uint64_t policy_flushes = 0;
  std::uint64_t policy_flushed_instructions = 0;
  /// Wrong-path modeling: synthesized instructions fetched, and those that
  /// actually issued (consuming function units / cache bandwidth) before
  /// the resolution squash.
  std::uint64_t wrong_path_fetched = 0;
  std::uint64_t wrong_path_issued = 0;
  std::uint64_t wrong_path_squashes = 0;
  /// Fault injection (src/robust/): commit cycles stolen by the sabotage
  /// fault, rename admissions denied by transient ROB/LSQ exhaustion, and
  /// total extra execution latency injected.  All zero on a fault-free run.
  std::uint64_t fault_commit_blocked_cycles = 0;
  std::uint64_t fault_rob_denials = 0;
  std::uint64_t fault_lsq_denials = 0;
  std::uint64_t fault_extra_latency_cycles = 0;
};

/// PipelineStats's one field list, shared by checkpoints and sweep journals.
void io_pipeline_stats(persist::Archive& ar, PipelineStats& s);

/// Per-thread dispatch-stall attribution, classified once per cycle for
/// every thread that failed to dispatch: what was the binding constraint?
struct ThreadStallStats {
  std::uint64_t ndi_blocked_cycles = 0;    ///< next instruction is an NDI
  std::uint64_t iq_full_cycles = 0;        ///< no adequate free IQ entry
  std::uint64_t rob_full_cycles = 0;       ///< rename gated by a full ROB
  std::uint64_t lsq_full_cycles = 0;       ///< rename gated by a full LSQ
  std::uint64_t fetch_starved_cycles = 0;  ///< nothing buffered to dispatch
};

class Pipeline;

/// Per-thread event counts returned by Pipeline::run_functional: what the
/// functional fast path executed for one thread (mode=sampled profiling).
struct FunctionalDelta {
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
};

/// Cycle-level observation hook, called synchronously from the pipeline.
/// The robust::InvariantChecker implements this to audit structural
/// invariants after every cycle; implementations may throw to abort a run.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;
  /// An instruction of `tid` retired this cycle (called in commit order).
  virtual void on_commit(ThreadId tid, SeqNum seq, Cycle now) = 0;
  /// All stages of cycle `now` have run; the machine is quiescent.
  virtual void on_cycle_end(const Pipeline& pipe, Cycle now) = 0;
};

class Pipeline {
 public:
  /// One instruction stream per hardware thread, in thread order, each
  /// seeded from `seed`.  Each thread generates its stream itself, or,
  /// with `streams`, replays the set's stream for its profile, seed and
  /// layout (made on first use); such a pipeline cannot be checkpointed
  /// (sweep cells; see docs/PERFORMANCE.md).  `streams` is not owned and
  /// must outlive the pipeline.
  Pipeline(const MachineConfig& config,
           std::span<const trace::BenchmarkProfile> workload, std::uint64_t seed,
           trace::StreamSet* streams = nullptr);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Advances the machine one cycle.
  void tick();

  /// Runs until some thread has committed `horizon` instructions (the
  /// paper's stop rule) or `max_cycles` elapses; returns cycles executed.
  /// Throws NoForwardProgress if no thread commits for
  /// MachineConfig::hang_cycles consecutive cycles (0 disables).
  Cycle run(std::uint64_t horizon, Cycle max_cycles = 0);

  /// Functional fast path (mode=sampled warm-up): executes instructions in
  /// program order, updating only the long-lived microarchitectural state a
  /// detailed region sim inherits -- caches (same last-fetch-line I-side
  /// rule as fetch), branch predictor + BTB (same train call as fetch), the
  /// trace generators, and the per-thread committed/fetched counters.  No
  /// cycle-level pipeline runs: nothing enters the fetch queue, IQ, ROB or
  /// LSQ, no interval captures fire, and the commit digest is untouched.
  /// Threads advance in chunked round-robin order (a fixed 64-instruction
  /// burst per thread per turn), one clock tick per instruction, so cache
  /// LRU and MSHR pruning see a monotone clock.  Only legal while the
  /// detailed pipeline is empty (fresh machine or directly after a previous
  /// functional block).  `per_thread_targets` gives the instruction count
  /// per thread (size must equal thread_count()); the overload runs every
  /// thread the same distance.  Returns what was executed, per thread.
  ///
  /// With a non-null `pool` (and more than one thread), trace generation
  /// runs as one producer task per thread on the pool while the shared
  /// cache/predictor updates apply on the calling thread in the same
  /// canonical burst order as the serial path -- the result is
  /// bit-identical at any pool size, including none.
  std::vector<FunctionalDelta> run_functional(
      std::span<const std::uint64_t> per_thread_targets,
      ThreadPool* pool = nullptr);
  std::vector<FunctionalDelta> run_functional(std::uint64_t per_thread_instructions,
                                              ThreadPool* pool = nullptr);

  /// Installs a cycle-level observer (invariant checking); nullptr (the
  /// default) disables.  Not owned; must outlive the pipeline or be
  /// detached before destruction.
  void set_observer(PipelineObserver* observer) noexcept { observer_ = observer; }

  /// Zeroes the cycle-counter-relative statistics (post-warm-up reset);
  /// machine state (caches, predictors, in-flight work) is preserved.
  void reset_stats();

  /// Checkpoint support: serializes every stateful structure (threads,
  /// rename maps, scheduler, issue queue, function units, caches,
  /// predictors, broadcast calendar, statistics, sampled gauges) so that a
  /// load into a pipeline freshly constructed with the same configuration,
  /// workload and seed continues bit-identically: same commit-stream
  /// digest, same statistics.  See docs/CHECKPOINT.md.  A thread that
  /// replays a shared stream has no generator state to save or load, so
  /// either call on such a pipeline fails a check.
  void save_state(persist::Archive& ar) const;
  void load_state(persist::Archive& ar);

  // ---- observation -------------------------------------------------------
  [[nodiscard]] Cycle cycles() const noexcept { return cycle_ - stats_base_cycle_; }
  /// Machine cycle since construction, unaffected by reset_stats (and
  /// restored by load_state).
  [[nodiscard]] Cycle absolute_cycle() const noexcept { return cycle_; }
  /// Running FNV-1a digest over the committed-instruction stream
  /// (tid, seq, cycle per commit), never reset: two runs are behaviourally
  /// identical iff their digests match.  Checkpoint/resume preserves it.
  [[nodiscard]] std::uint64_t commit_digest() const noexcept { return commit_digest_.h; }
  [[nodiscard]] unsigned thread_count() const noexcept { return config_.thread_count; }
  [[nodiscard]] std::uint64_t committed(ThreadId tid) const;
  /// Raw (reset-independent) count of instructions that entered the fetch
  /// queue for `tid`.  Equivalence anchor for the functional fast path: a
  /// functional run of fetched(tid) instructions trains the same per-thread
  /// branch-stream prefix as this detailed run did.
  [[nodiscard]] std::uint64_t fetched(ThreadId tid) const;
  /// True when the one-instruction fetch lookahead holds a generated but
  /// not-yet-fetched instruction (its generator is one ahead of fetched()).
  [[nodiscard]] bool has_pending_fetch(ThreadId tid) const;
  /// Generates the fetch lookahead for `tid` if it is empty (test hook for
  /// aligning generator state with a detailed run whose lookahead engaged).
  void prime_fetch_lookahead(ThreadId tid);
  /// The thread's trace generator (equivalence tests; read-only).  Fails
  /// a check for a thread that replays a shared stream.
  [[nodiscard]] const trace::TraceGenerator& generator(ThreadId tid) const;
  [[nodiscard]] std::uint64_t total_committed() const noexcept;
  [[nodiscard]] double ipc(ThreadId tid) const;
  [[nodiscard]] double total_ipc() const;

  [[nodiscard]] const core::Scheduler& scheduler() const noexcept { return *scheduler_; }
  [[nodiscard]] const mem::MemoryHierarchy& memory() const noexcept { return mem_; }
  [[nodiscard]] const bpred::BranchPredictor& predictor() const noexcept { return bpred_; }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return pstats_; }
  [[nodiscard]] const LsqStats& lsq_stats(ThreadId tid) const;
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }

  // Structure occupancies (diagnostic bundles, invariant checking).
  [[nodiscard]] std::uint32_t rob_size(ThreadId tid) const;
  [[nodiscard]] std::uint32_t lsq_size(ThreadId tid) const;
  [[nodiscard]] std::uint32_t fetch_queue_size(ThreadId tid) const;
  /// Correct-path instructions queued for refetch after a flush.
  [[nodiscard]] std::uint32_t replay_depth(ThreadId tid) const;

  /// Every metric of every component, registered at construction under
  /// hierarchical names ("scheduler.", "mem.", "bpred.", "pipeline.",
  /// "thread.N.", "occupancy.", "fu.").
  [[nodiscard]] const obs::StatRegistry& registry() const noexcept { return registry_; }

  /// Per-instruction lifecycle tracer; enabled via
  /// MachineConfig::trace_capacity (off by default).
  [[nodiscard]] const obs::InstTracer& tracer() const noexcept { return tracer_; }

  /// Interval telemetry engine; enabled via MachineConfig::interval_cycles
  /// (off by default).  Mutable access exists so a driver can attach a
  /// streaming sink (see persist::IntervalStreamWriter).
  [[nodiscard]] const obs::IntervalEngine& interval_engine() const noexcept {
    return interval_;
  }
  [[nodiscard]] obs::IntervalEngine& interval_engine() noexcept { return interval_; }

 private:
  /// The invariant checker audits internal structures (rename free lists,
  /// per-thread ROB contents, scheduler accounting) read-only each cycle.
  friend class ::msim::robust::InvariantChecker;

  struct FetchedInst {
    isa::DynInst inst;
    Cycle fetched_at = 0;
    bool mispredicted = false;
    bool wrong_path = false;
  };

  struct ThreadState {
    ThreadState(const trace::BenchmarkProfile& profile, std::uint64_t seed,
                ThreadId tid, const MachineConfig& config, trace::StreamSet* streams);

    /// Next instruction of the thread's program-order stream.
    isa::DynInst next_inst() { return cursor ? cursor->next() : gen->next(); }

    // Exactly one of the two is engaged: the thread generates its stream,
    // or replays a shared one.
    std::optional<trace::TraceGenerator> gen;
    std::optional<trace::StreamCursor> cursor;
    const trace::StaticProgram* program = nullptr;  ///< the stream's
    std::deque<isa::DynInst> replay;       ///< refilled by watchdog flushes
    std::optional<isa::DynInst> pending;   ///< one-instruction fetch lookahead
    Ring<FetchedInst> fetch_queue;
    ReorderBuffer rob;
    LoadStoreQueue lsq;
    Cycle fetch_stalled_until = 0;
    /// STALL/FLUSH policies: fetch gated until the latest outstanding L2
    /// miss returns.
    Cycle l2_stall_until = 0;
    bool awaiting_branch = false;          ///< mispredicted branch unresolved
    // Wrong-path mode (model_wrong_path): the front end is running down a
    // mispredicted path, synthesizing instructions from the static CFG.
    bool on_wrong_path = false;
    bool wp_fetch_done = false;            ///< predicted-taken BTB miss: stop
    Addr wp_pc = 0;
    SeqNum wp_branch_seq = 0;              ///< the mispredicted branch
    SeqNum wp_next_seq = 0;
    Cycle wp_squash_at = kCycleNever;      ///< branch resolution time
    Rng wp_rng{0xdecafbadULL};
    SeqNum awaited_branch_seq = 0;
    Addr last_fetch_line = ~Addr{0};
    std::uint64_t committed = 0;
    std::uint64_t committed_base = 0;      ///< value at last reset_stats
    std::uint64_t fetched = 0;
    std::uint64_t fetched_base = 0;        ///< value at last reset_stats
  };

  class DispatchEnvImpl;
  class IssueEnvImpl;

  void do_commit(Cycle now);
  void apply_broadcasts(Cycle now);
  void do_issue(Cycle now);
  void do_dispatch(Cycle now);
  void do_rename(Cycle now);
  void do_fetch(Cycle now);
  unsigned fetch_from_thread(ThreadId tid, unsigned budget, Cycle now);
  const isa::DynInst& peek_next_inst(ThreadState& ts);
  void watchdog_flush(Cycle now);
  /// Squashes every instruction of `tid` younger than `after_seq` from the
  /// whole machine.  With `requeue` (FLUSH fetch policy) the squashed
  /// correct-path instructions are queued for refetch; without it (branch
  /// resolution) everything squashed is wrong-path garbage and is dropped.
  void flush_thread_after(ThreadId tid, SeqNum after_seq, Cycle now, bool requeue);
  void apply_pending_policy_flushes(Cycle now);
  void apply_wrong_path_squashes(Cycle now);
  unsigned fetch_wrong_path(ThreadId tid, unsigned budget, Cycle now);
  [[nodiscard]] std::uint32_t icount(ThreadId tid) const;
  /// Registers every component's metrics into `registry_` (constructor).
  void register_metrics();
  /// Per-cycle observability: occupancy gauges + stall attribution.
  void sample_observability();
  /// Snapshot of every cumulative counter the interval engine diffs
  /// (tick-hook boundaries, reset_stats rebase).
  [[nodiscard]] obs::CumulativeSample make_cumulative_sample() const;
  /// Records kSquash for every in-flight instruction of `tid` with
  /// seq >= `min_seq` (no-op when tracing is off).
  void trace_squash(ThreadId tid, SeqNum min_seq, Cycle now);

  MachineConfig config_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  RenameUnit rename_;
  std::unique_ptr<core::Scheduler> scheduler_;
  FuPools fu_;
  mem::MemoryHierarchy mem_;
  bpred::BranchPredictor bpred_;
  /// Scheduled result-tag broadcasts, bucketed by completion cycle.
  BroadcastSchedule broadcasts_;

  /// FLUSH policy: per-thread squash point requested during issue, applied
  /// between the issue and dispatch phases of the same cycle.
  std::array<std::optional<SeqNum>, kMaxThreads> pending_policy_flush_{};

  void state_io(persist::Archive& ar);
  void thread_state_io(persist::Archive& ar, ThreadState& ts);

  Cycle cycle_ = 0;
  Cycle stats_base_cycle_ = 0;
  /// Simulator-level hang watchdog state.  Members (not run()-locals) so
  /// that a run executed in checkpointed chunks -- or resumed in a fresh
  /// process -- observes the same commit-free spans as one long run().
  std::uint64_t hang_last_total_ = 0;
  Cycle hang_last_progress_ = 0;
  Fnv1a commit_digest_;  ///< (tid, seq, cycle) of every commit, in order
  PipelineStats pstats_;
  PipelineObserver* observer_ = nullptr;       ///< not owned; nullptr = off
  const core::FaultHooks* faults_ = nullptr;   ///< not owned; nullptr = fault-free
  std::vector<ThreadStallStats> stall_stats_;  ///< one per thread

  // Observability.  The registry holds closures over other members and the
  // scheduler holds a pointer into tracer_; the pipeline is non-copyable,
  // so both stay valid for its lifetime.
  obs::InstTracer tracer_;
  obs::StatRegistry registry_;
  obs::IntervalEngine interval_;
  // Registry-owned per-cycle sampled gauges (reset via reset_sampled()).
  StreamingStat* occ_iq_ = nullptr;
  StreamingStat* occ_dab_ = nullptr;
  std::vector<StreamingStat*> occ_rob_;      ///< per thread
  std::vector<StreamingStat*> occ_lsq_;      ///< per thread
  std::vector<StreamingStat*> occ_rename_buffer_;  ///< per thread
};

}  // namespace msim::smt
