#include "smt/pipeline.hpp"

#include <algorithm>

#include <array>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "isa/instruction_io.hpp"

namespace msim::smt {

std::string_view fetch_policy_name(FetchPolicy p) noexcept {
  switch (p) {
    case FetchPolicy::kIcount:     return "icount";
    case FetchPolicy::kRoundRobin: return "round_robin";
    case FetchPolicy::kStall:      return "stall";
    case FetchPolicy::kFlush:      return "flush";
  }
  return "unknown";
}

// ---- environment adapters --------------------------------------------------

// The scheduler's dispatch and select phases are templates on these types
// (core::DispatchEnv / core::IssueEnv), so every call below inlines into the
// per-instruction loops of Scheduler::run_dispatch / run_select.

class Pipeline::DispatchEnvImpl final {
 public:
  explicit DispatchEnvImpl(const Pipeline& self) : self_(self) {}

  [[nodiscard]] bool is_ready(PhysReg reg) const {
    return self_.rename_.is_ready(reg);
  }

  [[nodiscard]] bool is_oldest_in_rob(ThreadId tid, SeqNum seq) const {
    const ReorderBuffer& rob = self_.threads_.at(tid)->rob;
    return !rob.empty() && rob.head_seq() == seq;
  }

 private:
  const Pipeline& self_;
};

class Pipeline::IssueEnvImpl final {
 public:
  IssueEnvImpl(Pipeline& self, Cycle now) : self_(self), now_(now) {}

  bool try_issue(const core::SchedInst& inst, bool from_dab) {
    Pipeline& p = self_;
    ThreadState& ts = *p.threads_[inst.tid];
    RobEntry& e = ts.rob.entry(inst.seq);
    MSIM_CHECK(!e.issued);
    const isa::OpTiming timing = isa::op_timing(e.inst.op);
    const Cycle now = now_;

    Cycle complete;
    if (e.inst.is_load()) {
      const LoadVerdict verdict = ts.lsq.check_load(
          inst.seq, e.inst.mem_addr,
          [&p](PhysReg r) { return p.rename_.is_ready(r); });
      if (verdict == LoadVerdict::kBlocked) {
        ++p.pstats_.load_issue_blocked;
        return false;
      }
      if (!p.fu_.try_allocate(e.inst.op, now)) return false;
      if (verdict == LoadVerdict::kForward) {
        complete = now + timing.latency;
      } else {
        // Address generation takes the first cycle; the D-cache access
        // begins in the next one.
        const std::uint32_t extra =
            p.mem_.access_data(e.inst.mem_addr, /*is_store=*/false, now + 1);
        complete = now + timing.latency + extra;
        // STALL / FLUSH fetch policies react to L2 misses (Tullsen &
        // Brown, MICRO 2001): gate the thread's fetch until the miss
        // returns; FLUSH additionally squashes everything younger.
        const bool l2_miss = extra >= p.config_.memory.memory_latency;
        if (l2_miss && (p.config_.fetch_policy == FetchPolicy::kStall ||
                        p.config_.fetch_policy == FetchPolicy::kFlush)) {
          ts.l2_stall_until = std::max(ts.l2_stall_until, complete);
          // Squashing in reaction to a wrong-path miss would be pointless:
          // the branch resolution squash already covers that suffix.
          if (p.config_.fetch_policy == FetchPolicy::kFlush && !e.wrong_path) {
            auto& pending = p.pending_policy_flush_.at(inst.tid);
            pending = pending ? std::min(*pending, inst.seq) : inst.seq;
          }
        }
      }
    } else {
      if (!p.fu_.try_allocate(e.inst.op, now)) return false;
      complete = now + timing.latency;
    }

    if (p.faults_) {
      const std::uint32_t extra =
          p.faults_->extra_issue_latency(inst.tid, inst.seq, now);
      if (extra != 0) {
        complete += extra;
        p.pstats_.fault_extra_latency_cycles += extra;
      }
    }

    e.issued = true;
    e.issued_at = now;
    e.complete_at = complete;
    ++p.pstats_.issued;
    if (e.wrong_path) ++p.pstats_.wrong_path_issued;
    if (e.dest_phys != kNoPhysReg) {
      p.broadcasts_.schedule(complete, e.dest_phys);
    }
    if (p.tracer_.enabled()) {
      std::uint8_t flags = 0;
      if (from_dab) flags |= obs::kTraceFlagFromDab;
      if (e.wrong_path) flags |= obs::kTraceFlagWrongPath;
      if (e.mispredicted) flags |= obs::kTraceFlagMispredict;
      p.tracer_.record(now, inst.tid, inst.seq, obs::TraceStage::kIssue, flags);
      p.tracer_.record(complete, inst.tid, inst.seq, obs::TraceStage::kWriteback,
                       flags);
    }
    if (e.mispredicted) {
      if (ts.on_wrong_path && ts.wp_branch_seq == inst.seq) {
        // Wrong-path mode: schedule the resolution squash.
        ts.wp_squash_at = complete;
      } else {
        // Stall mode: fetch resumes one cycle after the branch resolves.
        MSIM_CHECK(ts.awaiting_branch && ts.awaited_branch_seq == inst.seq);
        ts.fetch_stalled_until = complete + 1;
        ts.awaiting_branch = false;
      }
    }
    return true;
  }

 private:
  Pipeline& self_;
  Cycle now_;
};

// ---- construction -----------------------------------------------------------

Pipeline::ThreadState::ThreadState(const trace::BenchmarkProfile& profile,
                                   std::uint64_t seed, ThreadId tid,
                                   const MachineConfig& config,
                                   trace::StreamSet* streams)
    : fetch_queue(config.fetch_queue_entries),
      rob(config.rob_entries_per_thread),
      lsq(config.lsq_entries_per_thread, config.oracle_disambiguation) {
  const trace::AddressSpace layout = trace::AddressSpace::for_thread(tid);
  if (streams != nullptr) {
    cursor.emplace(streams->stream(profile, seed, layout));
    program = &cursor->program();
  } else {
    gen.emplace(profile, seed, layout);
    program = &gen->program();
  }
}

Pipeline::Pipeline(const MachineConfig& config,
                   std::span<const trace::BenchmarkProfile> workload,
                   std::uint64_t seed, trace::StreamSet* streams)
    : config_(config),
      rename_(config.thread_count, config.int_phys_regs, config.fp_phys_regs),
      mem_(config.memory),
      bpred_(config.predictor, config.thread_count),
      faults_(config.fault_hooks) {
  MSIM_CHECK(workload.size() == config_.thread_count);
  MSIM_CHECK(config_.thread_count >= 1 && config_.thread_count <= kMaxThreads);
  scheduler_ = std::make_unique<core::Scheduler>(
      config_.scheduler, config_.thread_count, config_.dispatch_width,
      config_.issue_width);
  scheduler_->set_fault_hooks(faults_);
  Rng seeder(seed);
  threads_.reserve(config_.thread_count);
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    threads_.push_back(std::make_unique<ThreadState>(workload[t], seeder.next_u64(),
                                                     t, config_, streams));
  }
  stall_stats_.resize(config_.thread_count);
  if (config_.trace_capacity != 0) {
    tracer_.enable(config_.trace_capacity);
    scheduler_->set_tracer(&tracer_);
  }
  interval_.configure({config_.interval_cycles, config_.interval_ring_capacity},
                      config_.thread_count);
}

Pipeline::~Pipeline() = default;

// ---- per-cycle stages --------------------------------------------------------

void Pipeline::do_commit(Cycle now) {
  if (faults_ && faults_->commit_blocked(now)) {
    ++pstats_.fault_commit_blocked_cycles;
    return;
  }
  unsigned remaining = config_.commit_width;
  bool progress = true;
  const unsigned start = static_cast<unsigned>(now % config_.thread_count);
  while (remaining > 0 && progress) {
    progress = false;
    unsigned slot = start;
    for (unsigned i = 0; i < config_.thread_count && remaining > 0;
         ++i, slot = slot + 1 == config_.thread_count ? 0 : slot + 1) {
      const auto tid = static_cast<ThreadId>(slot);
      ThreadState& ts = *threads_[tid];
      if (ts.rob.empty()) continue;
      RobEntry& head = ts.rob.head();
      MSIM_CHECK(!head.wrong_path);
      if (!head.done(now)) continue;
      if (head.inst.is_mem()) {
        if (head.inst.is_store()) {
          // Stores update the data cache at commit; the latency is absorbed
          // by the write buffer and does not stall retirement.
          (void)mem_.access_data(head.inst.mem_addr, /*is_store=*/true, now);
        }
        ts.lsq.pop(head.inst.seq);
      }
      rename_.commit(tid, head.inst.dest, head.dest_phys, head.prev_dest_phys);
      tracer_.record(now, tid, head.inst.seq, obs::TraceStage::kCommit);
      commit_digest_.u64(tid);
      commit_digest_.u64(head.inst.seq);
      commit_digest_.u64(now);
      if (observer_) observer_->on_commit(tid, head.inst.seq, now);
      ts.rob.pop_head();
      ++ts.committed;
      --remaining;
      progress = true;
    }
  }
}

void Pipeline::apply_broadcasts(Cycle now) {
  broadcasts_.drain_due(now, [this](PhysReg tag) {
    rename_.set_ready(tag);
    scheduler_->broadcast(tag);
  });
}

void Pipeline::do_issue(Cycle now) {
  IssueEnvImpl env(*this, now);
  scheduler_->run_select(now, env);
}

void Pipeline::do_dispatch(Cycle now) {
  const DispatchEnvImpl env(*this);
  const core::DispatchCycleResult result = scheduler_->run_dispatch(now, env);
  if (result.watchdog_fired) watchdog_flush(now);
}

void Pipeline::do_rename(Cycle now) {
  unsigned remaining = config_.rename_width;
  bool progress = true;
  const unsigned start = static_cast<unsigned>(now % config_.thread_count);
  while (remaining > 0 && progress) {
    progress = false;
    unsigned slot = start;
    for (unsigned i = 0; i < config_.thread_count && remaining > 0;
         ++i, slot = slot + 1 == config_.thread_count ? 0 : slot + 1) {
      const auto tid = static_cast<ThreadId>(slot);
      ThreadState& ts = *threads_[tid];
      if (ts.fetch_queue.empty()) continue;
      const FetchedInst& f = ts.fetch_queue.front();
      if (f.fetched_at + config_.front_end_delay() > now) continue;
      const isa::DynInst& di = f.inst;
      if (ts.rob.full()) continue;
      if (faults_ && faults_->rob_exhausted(tid, now)) {
        ++pstats_.fault_rob_denials;
        continue;
      }
      if (di.is_mem() && ts.lsq.full()) continue;
      if (di.is_mem() && faults_ && faults_->lsq_exhausted(tid, now)) {
        ++pstats_.fault_lsq_denials;
        continue;
      }
      if (!scheduler_->buffer_has_space(tid)) continue;
      if (!rename_.can_allocate(di.dest)) continue;

      const RenameResult rr = rename_.rename(tid, di);
      RobEntry& e = ts.rob.allocate(di.seq);
      e.inst = di;
      e.src_phys[0] = rr.src[0];
      e.src_phys[1] = rr.src[1];
      e.dest_phys = rr.dest;
      e.prev_dest_phys = rr.prev_dest;
      e.fetched_at = f.fetched_at;
      e.renamed_at = now;
      e.mispredicted = f.mispredicted;
      e.wrong_path = f.wrong_path;
      if (di.is_mem()) {
        ts.lsq.allocate(di.seq, di.is_store(), di.mem_addr, rr.src[0], rr.src[1]);
      }
      core::SchedInst si;
      si.tid = tid;
      si.seq = di.seq;
      si.op = di.op;
      si.src[0] = rr.src[0];
      si.src[1] = rr.src[1];
      si.dest = rr.dest;
      scheduler_->insert(si);
      tracer_.record(now, tid, di.seq, obs::TraceStage::kRename,
                     e.wrong_path ? obs::kTraceFlagWrongPath : std::uint8_t{0});

      ts.fetch_queue.pop_front();
      --remaining;
      progress = true;
    }
  }
}

std::uint32_t Pipeline::icount(ThreadId tid) const {
  const ThreadState& ts = *threads_[tid];
  return ts.fetch_queue.size() + scheduler_->held_instructions(tid);
}

const isa::DynInst& Pipeline::peek_next_inst(ThreadState& ts) {
  if (!ts.pending) {
    if (!ts.replay.empty()) {
      ts.pending = ts.replay.front();
      ts.replay.pop_front();
    } else {
      ts.pending = ts.next_inst();
    }
  }
  return *ts.pending;
}

unsigned Pipeline::fetch_from_thread(ThreadId tid, unsigned budget, Cycle now) {
  ThreadState& ts = *threads_[tid];
  const std::uint64_t line_bytes = config_.memory.l1i.line_bytes;
  unsigned fetched = 0;
  while (fetched < budget && !ts.fetch_queue.full()) {
    const isa::DynInst& di = peek_next_inst(ts);

    const Addr line = di.pc / line_bytes;
    if (line != ts.last_fetch_line) {
      const std::uint32_t extra = mem_.access_inst(di.pc, now);
      ts.last_fetch_line = line;
      if (extra > 0) {
        ts.fetch_stalled_until = now + extra;
        ++pstats_.fetch_icache_stall_cycles;
        break;  // the instruction stays pending and is fetched after the fill
      }
    }

    FetchedInst f{di, now, /*mispredicted=*/false, /*wrong_path=*/false};
    bool stop_after = false;
    if (di.is_branch()) {
      bool correct_path = false;
      const auto prediction =
          bpred_.predict_and_train_full(tid, di.pc, di.taken, di.next_pc,
                                        &correct_path);
      if (!correct_path) {
        f.mispredicted = true;
        stop_after = true;
        // Where would the front end go?  Predicted-taken needs a BTB
        // target; without one (or without wrong-path modeling) the thread
        // simply stalls until the branch resolves (DESIGN.md).
        const bool can_redirect =
            config_.model_wrong_path && (!prediction.taken || prediction.have_target);
        if (can_redirect) {
          ts.on_wrong_path = true;
          ts.wp_fetch_done = false;
          ts.wp_pc = prediction.taken ? prediction.target
                                      : ts.program->fallthrough_of(di.pc);
          ts.wp_branch_seq = di.seq;
          ts.wp_next_seq = di.seq + 1;
          ts.wp_squash_at = kCycleNever;  // set when the branch issues
        } else {
          ts.awaiting_branch = true;
          ts.awaited_branch_seq = di.seq;
        }
      } else if (di.taken) {
        stop_after = true;  // cannot fetch across a taken branch this cycle
      }
    }
    ts.fetch_queue.push_back(f);
    tracer_.record(now, tid, f.inst.seq, obs::TraceStage::kFetch,
                   f.mispredicted ? obs::kTraceFlagMispredict : std::uint8_t{0});
    ts.pending.reset();
    ++ts.fetched;
    ++fetched;
    if (stop_after) break;
  }
  return fetched;
}

unsigned Pipeline::fetch_wrong_path(ThreadId tid, unsigned budget, Cycle now) {
  ThreadState& ts = *threads_[tid];
  if (ts.wp_fetch_done) return 0;
  const std::uint64_t line_bytes = config_.memory.l1i.line_bytes;
  unsigned fetched = 0;
  while (fetched < budget && !ts.fetch_queue.full()) {
    isa::DynInst wi = ts.program->synthesize_wrong_path(ts.wp_pc, ts.wp_rng);
    wi.seq = ts.wp_next_seq;

    // Wrong-path fetch misses the I-cache like any other fetch (in fact
    // this is cache pollution: the fills may evict useful lines).
    const Addr line = wi.pc / line_bytes;
    if (line != ts.last_fetch_line) {
      const std::uint32_t extra = mem_.access_inst(wi.pc, now);
      ts.last_fetch_line = line;
      if (extra > 0) {
        ts.fetch_stalled_until = now + extra;
        ++pstats_.fetch_icache_stall_cycles;
        break;
      }
    }

    bool stop_after = false;
    if (wi.is_branch()) {
      // No architectural outcome exists on the wrong path: follow the
      // predictor without training it.
      const auto prediction = bpred_.predict_only(tid, wi.pc);
      if (prediction.taken && !prediction.have_target) {
        ts.wp_fetch_done = true;  // nowhere to go until resolution
      } else if (prediction.taken) {
        ts.wp_pc = prediction.target;
        stop_after = true;  // fetch discontinuity
      } else {
        ts.wp_pc = ts.program->fallthrough_of(wi.pc);
      }
    } else {
      ts.wp_pc = wi.next_pc;
    }

    ts.fetch_queue.push_back(
        FetchedInst{wi, now, /*mispredicted=*/false, /*wrong_path=*/true});
    tracer_.record(now, tid, wi.seq, obs::TraceStage::kFetch,
                   obs::kTraceFlagWrongPath);
    ++ts.wp_next_seq;
    ++pstats_.wrong_path_fetched;
    ++fetched;
    if (stop_after || ts.wp_fetch_done) break;
  }
  return fetched;
}

void Pipeline::do_fetch(Cycle now) {
  // Priority order: ICOUNT (Section 2) gives the threads with the fewest
  // in-flight front-end instructions first pick; round-robin simply
  // rotates.  STALL and FLUSH use ICOUNT order plus L2-miss gating.
  std::array<ThreadId, kMaxThreads> order;
  unsigned slot = static_cast<unsigned>(now % config_.thread_count);
  for (unsigned t = 0; t < config_.thread_count;
       ++t, slot = slot + 1 == config_.thread_count ? 0 : slot + 1) {
    order[t] = static_cast<ThreadId>(slot);
  }
  if (config_.fetch_policy != FetchPolicy::kRoundRobin) {
    // icount() walks three structures; compute it once per thread and
    // stable-insertion-sort the (tiny) order array on the cached values.
    std::array<std::uint32_t, kMaxThreads> counts;
    for (unsigned t = 0; t < config_.thread_count; ++t) {
      counts[order[t]] = icount(order[t]);
    }
    for (unsigned i = 1; i < config_.thread_count; ++i) {
      const ThreadId tid = order[i];
      const std::uint32_t count = counts[tid];
      unsigned j = i;
      for (; j > 0 && counts[order[j - 1]] > count; --j) order[j] = order[j - 1];
      order[j] = tid;
    }
  }
  const bool l2_gating = config_.fetch_policy == FetchPolicy::kStall ||
                         config_.fetch_policy == FetchPolicy::kFlush;

  unsigned threads_used = 0;
  unsigned total = 0;
  for (unsigned i = 0; i < config_.thread_count; ++i) {
    if (threads_used >= config_.fetch_threads_per_cycle) break;
    if (total >= config_.fetch_width) break;
    const ThreadId tid = order[i];
    ThreadState& ts = *threads_[tid];
    if (ts.awaiting_branch || ts.fetch_stalled_until > now) continue;
    if (l2_gating && ts.l2_stall_until > now) {
      ++pstats_.fetch_l2_gated;
      continue;
    }
    if (ts.fetch_queue.full()) continue;
    total += ts.on_wrong_path
                 ? fetch_wrong_path(tid, config_.fetch_width - total, now)
                 : fetch_from_thread(tid, config_.fetch_width - total, now);
    ++threads_used;  // the thread consumed a fetch port even on an I-miss
  }
}

void Pipeline::watchdog_flush(Cycle now) {
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    ThreadState& ts = *threads_[t];
    trace_squash(t, /*min_seq=*/0, now);
    std::vector<PhysReg> squashed;
    std::deque<isa::DynInst> new_replay;
    ts.rob.for_each([&](const RobEntry& e) {
      if (!e.wrong_path) new_replay.push_back(e.inst);
      if (e.dest_phys != kNoPhysReg) squashed.push_back(e.dest_phys);
    });
    for (const FetchedInst& f : ts.fetch_queue) {
      if (!f.wrong_path) new_replay.push_back(f.inst);
    }
    if (ts.pending) new_replay.push_back(*ts.pending);
    for (const isa::DynInst& di : ts.replay) new_replay.push_back(di);
    pstats_.watchdog_flushed_instructions += new_replay.size() - ts.replay.size();
    ts.replay = std::move(new_replay);

    rename_.flush_thread(t, squashed);
    ts.rob.clear();
    ts.lsq.clear();
    ts.fetch_queue.clear();
    ts.pending.reset();
    ts.awaiting_branch = false;
    ts.on_wrong_path = false;
    ts.wp_fetch_done = false;
    ts.wp_squash_at = kCycleNever;
    ts.fetch_stalled_until = now + 1;
    ts.last_fetch_line = ~Addr{0};
  }
  scheduler_->flush();
  fu_.clear();
  broadcasts_.clear();
}

void Pipeline::apply_pending_policy_flushes(Cycle now) {
  if (config_.fetch_policy != FetchPolicy::kFlush) return;
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    auto& pending = pending_policy_flush_.at(t);
    if (!pending) continue;
    flush_thread_after(t, *pending, now, /*requeue=*/true);
    pending.reset();
  }
}

void Pipeline::flush_thread_after(ThreadId tid, SeqNum after_seq, Cycle now,
                                  bool requeue) {
  ThreadState& ts = *threads_[tid];
  MSIM_CHECK(ts.rob.contains(after_seq));
  trace_squash(tid, after_seq + 1, now);
  const SeqNum youngest = ts.rob.head_seq() + ts.rob.size() - 1;

  // Rewind the rename map youngest-first along the squashed suffix, recycle
  // the squashed destination registers, and cancel their pending result
  // broadcasts; collect the squashed correct-path instructions for replay
  // (oldest first).  Wrong-path instructions are synthetic and are dropped.
  std::deque<isa::DynInst> refetch;
  for (SeqNum seq = youngest; seq > after_seq; --seq) {
    const RobEntry& e = ts.rob.entry(seq);
    if (e.dest_phys != kNoPhysReg) {
      rename_.rewind_mapping(tid, e.inst.dest, e.dest_phys, e.prev_dest_phys);
      if (e.issued && e.complete_at > now) {
        broadcasts_.cancel(e.complete_at, e.dest_phys);
      }
    }
    if (!e.wrong_path) refetch.push_front(e.inst);
  }
  ts.rob.truncate_to(after_seq);
  ts.lsq.squash_younger(after_seq);
  scheduler_->squash_younger(tid, after_seq);

  // Front-end contents are all younger than anything in the ROB.
  for (const FetchedInst& f : ts.fetch_queue) {
    if (!f.wrong_path) refetch.push_back(f.inst);
  }
  ts.fetch_queue.clear();
  if (requeue) {
    if (ts.pending) {
      refetch.push_back(*ts.pending);
      ts.pending.reset();
    }
    pstats_.policy_flushed_instructions += refetch.size();
    ++pstats_.policy_flushes;
    for (auto it = refetch.rbegin(); it != refetch.rend(); ++it) {
      ts.replay.push_front(*it);
    }
  } else {
    // Branch resolution: the squashed suffix was wrong-path only; the
    // correct-path stream continues from ts.pending / the thread's stream.
    MSIM_CHECK(refetch.empty());
  }

  if (ts.awaiting_branch && ts.awaited_branch_seq > after_seq) {
    ts.awaiting_branch = false;
    ts.fetch_stalled_until = now + 1;
  }
  // If the mispredicted branch itself was squashed (requeue path), leave
  // wrong-path mode; the branch will re-fetch and re-predict.  If the
  // squash keeps the branch (a FLUSH inside the wrong-path suffix), the
  // synthesized stream resumes at the truncation point.
  if (ts.on_wrong_path) {
    if (after_seq < ts.wp_branch_seq) {
      ts.on_wrong_path = false;
      ts.wp_fetch_done = false;
      ts.wp_squash_at = kCycleNever;
    } else {
      ts.wp_next_seq = after_seq + 1;
      ts.wp_fetch_done = false;
    }
  }
  ts.last_fetch_line = ~Addr{0};
}

void Pipeline::apply_wrong_path_squashes(Cycle now) {
  if (!config_.model_wrong_path) return;
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    ThreadState& ts = *threads_[t];
    if (!ts.on_wrong_path || ts.wp_squash_at > now) continue;
    flush_thread_after(t, ts.wp_branch_seq, now, /*requeue=*/false);
    ts.on_wrong_path = false;
    ts.wp_fetch_done = false;
    ts.wp_squash_at = kCycleNever;
    ts.fetch_stalled_until = std::max(ts.fetch_stalled_until, now + 1);
    ++pstats_.wrong_path_squashes;
  }
}

void Pipeline::tick() {
  const Cycle now = cycle_;
  apply_wrong_path_squashes(now);
  do_commit(now);
  apply_broadcasts(now);
  do_issue(now);
  apply_pending_policy_flushes(now);
  do_dispatch(now);
  do_rename(now);
  do_fetch(now);
  scheduler_->tick_stats();
  sample_observability();
  if (observer_) observer_->on_cycle_end(*this, now);
  ++cycle_;
  // Interval boundaries key on the absolute cycle count, so runs executed
  // in checkpointed chunks capture at exactly the same points as one
  // uninterrupted run.
  if (interval_.enabled() &&
      cycle_ % interval_.config().interval_cycles == 0) {
    interval_.capture(make_cumulative_sample());
  }
}

Cycle Pipeline::run(std::uint64_t horizon, Cycle max_cycles) {
  const Cycle start = cycle_;
  auto reached = [&] {
    for (const auto& ts : threads_) {
      if (ts->committed - ts->committed_base >= horizon) return true;
    }
    return false;
  };
  // Simulator-level hang watchdog: tracks the raw (reset-independent)
  // commit total so a reset_stats between warm-up and measurement cannot
  // fake a stall.
  auto raw_committed = [&] {
    std::uint64_t total = 0;
    for (const auto& ts : threads_) total += ts->committed;
    return total;
  };
  // The tracking state lives in members (hang_last_total_ /
  // hang_last_progress_) so that running in checkpoint-sized chunks, or
  // resuming from a checkpoint, observes the same commit-free spans as one
  // uninterrupted run() call.
  if (raw_committed() != hang_last_total_) {
    hang_last_total_ = raw_committed();
    hang_last_progress_ = cycle_;
  }
  while (!reached()) {
    if (max_cycles != 0 && cycle_ - start >= max_cycles) break;
    tick();
    if (config_.hang_cycles != 0) {
      const std::uint64_t total = raw_committed();
      if (total != hang_last_total_) {
        hang_last_total_ = total;
        hang_last_progress_ = cycle_;
      } else if (cycle_ - hang_last_progress_ >= config_.hang_cycles) {
        const Cycle stalled = cycle_ - hang_last_progress_;
        throw NoForwardProgress(
            "no thread committed an instruction for " + std::to_string(stalled) +
                " cycles (hang declared at cycle " + std::to_string(cycle_) +
                "); the configured deadlock remedy failed to restore progress",
            cycle_, stalled);
      }
    }
  }
  return cycle_ - start;
}

void Pipeline::reset_stats() {
  stats_base_cycle_ = cycle_;
  pstats_ = {};
  for (const auto& ts : threads_) {
    ts->committed_base = ts->committed;
    ts->fetched_base = ts->fetched;
    ts->lsq.reset_stats();
  }
  for (ThreadStallStats& s : stall_stats_) s = {};
  for_each_occupancy(*this, [](const std::string&, StreamingStat& gauge) { gauge = {}; });
  scheduler_->reset_stats();
  mem_.reset_stats();
  bpred_.reset_stats();
  fu_.reset_stats();
  // Rebase the interval engine's delta baseline to the post-reset totals
  // (mostly zeros, raw per-thread commit/fetch counters excepted), so the
  // first post-warm-up interval's deltas do not underflow.
  interval_.reset_stats(make_cumulative_sample());
}

std::uint64_t Pipeline::committed(ThreadId tid) const {
  const ThreadState& ts = *threads_.at(tid);
  return ts.committed - ts.committed_base;
}

std::uint64_t Pipeline::total_committed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& ts : threads_) total += ts->committed - ts->committed_base;
  return total;
}

double Pipeline::ipc(ThreadId tid) const {
  const Cycle c = cycles();
  return c ? static_cast<double>(committed(tid)) / static_cast<double>(c) : 0.0;
}

double Pipeline::total_ipc() const {
  const Cycle c = cycles();
  return c ? static_cast<double>(total_committed()) / static_cast<double>(c) : 0.0;
}

const LsqStats& Pipeline::lsq_stats(ThreadId tid) const {
  return threads_.at(tid)->lsq.stats();
}

std::uint32_t Pipeline::rob_size(ThreadId tid) const {
  return threads_.at(tid)->rob.size();
}

std::uint32_t Pipeline::lsq_size(ThreadId tid) const {
  return static_cast<std::uint32_t>(threads_.at(tid)->lsq.size());
}

std::uint32_t Pipeline::fetch_queue_size(ThreadId tid) const {
  return threads_.at(tid)->fetch_queue.size();
}

std::uint32_t Pipeline::replay_depth(ThreadId tid) const {
  return static_cast<std::uint32_t>(threads_.at(tid)->replay.size());
}

// ---- observability ----------------------------------------------------------

template <typename Self, typename Fn>
void Pipeline::for_each_occupancy(Self& self, Fn&& fn) {
  for (ThreadId t = 0; t < self.config_.thread_count; ++t) {
    ThreadState& ts = *self.threads_[t];
    fn("occupancy.rob." + std::to_string(t), ts.occ_rob);
    fn("occupancy.lsq." + std::to_string(t), ts.occ_lsq);
    fn("occupancy.rename_buffer." + std::to_string(t), ts.occ_rename_buffer);
  }
  fn("occupancy.iq", self.occ_iq_);
  fn("occupancy.dab", self.occ_dab_);
}

std::vector<obs::MetricSnapshot> Pipeline::metrics() const {
  std::vector<obs::MetricSnapshot> out;
  scheduler_->append_metrics(out, "scheduler.");
  mem_.append_metrics(out, "mem.");
  bpred_.append_metrics(out, "bpred.");

  obs::append_counter(out, "pipeline.cycles", cycles());
  obs::append_counter(out, "pipeline.committed", total_committed());
  obs::append_gauge(out, "pipeline.total_ipc", total_ipc());
  const PipelineStats& p = pstats_;
  obs::append_counter(out, "pipeline.issued", p.issued);
  obs::append_counter(out, "pipeline.load_issue_blocked", p.load_issue_blocked);
  obs::append_counter(out, "pipeline.fetch_icache_stall_cycles",
                      p.fetch_icache_stall_cycles);
  obs::append_counter(out, "pipeline.watchdog_flushed_instructions",
                      p.watchdog_flushed_instructions);
  obs::append_counter(out, "pipeline.fetch_l2_gated", p.fetch_l2_gated);
  obs::append_counter(out, "pipeline.policy_flushes", p.policy_flushes);
  obs::append_counter(out, "pipeline.policy_flushed_instructions",
                      p.policy_flushed_instructions);
  obs::append_counter(out, "pipeline.wrong_path_fetched", p.wrong_path_fetched);
  obs::append_counter(out, "pipeline.wrong_path_issued", p.wrong_path_issued);
  obs::append_counter(out, "pipeline.wrong_path_squashes", p.wrong_path_squashes);
  obs::append_counter(out, "pipeline.fault.commit_blocked_cycles",
                      p.fault_commit_blocked_cycles);
  obs::append_counter(out, "pipeline.fault.rob_denials", p.fault_rob_denials);
  obs::append_counter(out, "pipeline.fault.lsq_denials", p.fault_lsq_denials);
  obs::append_counter(out, "pipeline.fault.extra_latency_cycles",
                      p.fault_extra_latency_cycles);

  const FuStats& fu = fu_.stats();
  for (unsigned k = 0; k < isa::kFuKindCount; ++k) {
    const std::string fp =
        "fu." + std::string(isa::fu_kind_name(static_cast<isa::FuKind>(k))) + ".";
    obs::append_counter(out, fp + "issues", fu.issues[k]);
    obs::append_counter(out, fp + "structural_rejects", fu.structural_rejects[k]);
  }

  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    const std::string tp = "thread." + std::to_string(t) + ".";
    const ThreadState& ts = *threads_[t];
    obs::append_counter(out, tp + "committed", committed(t));
    obs::append_counter(out, tp + "fetched", ts.fetched - ts.fetched_base);
    obs::append_gauge(out, tp + "ipc", ipc(t));
    const LsqStats& lsq = ts.lsq.stats();
    obs::append_counter(out, tp + "lsq.loads_checked", lsq.loads_checked);
    obs::append_counter(out, tp + "lsq.forwards", lsq.forwards);
    obs::append_counter(out, tp + "lsq.blocked_checks", lsq.blocked_checks);
    const ThreadStallStats& ss = stall_stats_[t];
    obs::append_counter(out, tp + "stall.ndi_blocked_cycles", ss.ndi_blocked_cycles);
    obs::append_counter(out, tp + "stall.iq_full_cycles", ss.iq_full_cycles);
    obs::append_counter(out, tp + "stall.rob_full_cycles", ss.rob_full_cycles);
    obs::append_counter(out, tp + "stall.lsq_full_cycles", ss.lsq_full_cycles);
    obs::append_counter(out, tp + "stall.fetch_starved_cycles", ss.fetch_starved_cycles);
    // Interval telemetry (all zero while intervals are disabled).
    obs::append_gauge(out, tp + "phase.id", static_cast<double>(interval_.phase_id(t)));
    obs::append_counter(out, tp + "phase.changes", interval_.phase_changes(t));
    obs::append_counter(out, tp + "phase.unique", interval_.unique_phases(t));
  }
  for_each_occupancy(*this, [&out](std::string name, const StreamingStat& gauge) {
    obs::append_sampled(out, std::move(name), gauge);
  });
  obs::append_counter(out, "interval.captured", interval_.captured());
  obs::append_counter(out, "interval.dropped", interval_.dropped());
  obs::sort_metrics(out);
  return out;
}

void Pipeline::sample_observability() {
  occ_iq_.add(static_cast<double>(scheduler_->iq().size()));
  occ_dab_.add(static_cast<double>(scheduler_->dab_occupancy()));
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    ThreadState& ts = *threads_[t];
    ts.occ_rob.add(static_cast<double>(ts.rob.size()));
    ts.occ_lsq.add(static_cast<double>(ts.lsq.size()));
    ts.occ_rename_buffer.add(static_cast<double>(scheduler_->buffer_size(t)));

    ThreadStallStats& ss = stall_stats_[t];
    switch (scheduler_->block_reason(t)) {
      case core::DispatchBlock::kTwoNonReady:
        ++ss.ndi_blocked_cycles;
        break;
      case core::DispatchBlock::kIqFull:
        ++ss.iq_full_cycles;
        break;
      case core::DispatchBlock::kEmptyBuffer:
        // Nothing buffered to dispatch: attribute to whichever upstream
        // structure gated rename this cycle, else the front end itself.
        if (ts.rob.full()) {
          ++ss.rob_full_cycles;
        } else if (ts.lsq.full()) {
          ++ss.lsq_full_cycles;
        } else {
          ++ss.fetch_starved_cycles;
        }
        break;
      default:
        break;
    }
  }
}

obs::CumulativeSample Pipeline::make_cumulative_sample() const {
  obs::CumulativeSample cum;
  cum.cycle = cycle_;
  cum.dispatched = scheduler_->dispatch_stats().dispatched;
  cum.issued = pstats_.issued;
  cum.iq_occ_sum = occ_iq_.sum();
  cum.iq_occ_count = occ_iq_.count();
  cum.dab_occ_sum = occ_dab_.sum();
  cum.dab_occ_count = occ_dab_.count();
  const mem::HierarchyStats mem = mem_.stats();
  cum.l1d_misses = mem.l1d.misses;
  cum.l2_misses = mem.l2.misses;
  const bpred::PredictorStats bp = bpred_.total_stats();
  cum.branches = bp.branches;
  cum.mispredicts = bp.mispredicts;
  cum.threads.resize(config_.thread_count);
  for (ThreadId t = 0; t < config_.thread_count; ++t) {
    const ThreadState& ts = *threads_[t];
    obs::CumulativeSample::Thread& out = cum.threads[t];
    // Raw (reset-independent) commit/fetch counters: reset_stats rebases
    // the engine's baseline, so deltas stay consistent either way.
    out.committed = ts.committed;
    out.fetched = ts.fetched;
    cum.committed += ts.committed;
    cum.fetched += ts.fetched;
    const ThreadStallStats& ss = stall_stats_[t];
    out.ndi_blocked_cycles = ss.ndi_blocked_cycles;
    out.iq_full_cycles = ss.iq_full_cycles;
    out.rob_full_cycles = ss.rob_full_cycles;
    out.lsq_full_cycles = ss.lsq_full_cycles;
    out.fetch_starved_cycles = ss.fetch_starved_cycles;
    out.rob_occ_sum = ts.occ_rob.sum();
    out.rob_occ_count = ts.occ_rob.count();
    out.lsq_occ_sum = ts.occ_lsq.sum();
    out.lsq_occ_count = ts.occ_lsq.count();
    out.loads = ts.lsq.stats().loads_checked;
  }
  return cum;
}

void Pipeline::trace_squash(ThreadId tid, SeqNum min_seq, Cycle now) {
  if (!tracer_.enabled()) return;
  ThreadState& ts = *threads_[tid];
  ts.rob.for_each([&](const RobEntry& e) {
    if (e.inst.seq >= min_seq) {
      tracer_.record(now, tid, e.inst.seq, obs::TraceStage::kSquash,
                     e.wrong_path ? obs::kTraceFlagWrongPath : std::uint8_t{0});
    }
  });
  for (const FetchedInst& f : ts.fetch_queue) {
    if (f.inst.seq >= min_seq) {
      tracer_.record(now, tid, f.inst.seq, obs::TraceStage::kSquash,
                     f.wrong_path ? obs::kTraceFlagWrongPath : std::uint8_t{0});
    }
  }
}

// ---- checkpoint/restore ------------------------------------------------------

void Pipeline::thread_state_io(persist::Archive& ar, ThreadState& ts) {
  ar.section("thread");
  // A replayed stream's position is not generator state; sweep cells, the
  // only replaying runs, never checkpoint.
  MSIM_CHECK(ts.gen.has_value());
  ts.gen->state_io(ar);
  ar.io_sequence(ts.replay, isa::io_dyn_inst);
  ar.io_optional(ts.pending, isa::io_dyn_inst);
  ar.io_ring(ts.fetch_queue, "fetch queue", [](persist::Archive& a, FetchedInst& f) {
    isa::io_dyn_inst(a, f.inst);
    a.io(f.fetched_at);
    a.io(f.mispredicted);
    a.io(f.wrong_path);
  });
  ts.rob.state_io(ar);
  ts.lsq.state_io(ar);
  ar.io(ts.fetch_stalled_until);
  ar.io(ts.l2_stall_until);
  ar.io(ts.awaiting_branch);
  ar.io(ts.on_wrong_path);
  ar.io(ts.wp_fetch_done);
  ar.io(ts.wp_pc);
  ar.io(ts.wp_branch_seq);
  ar.io(ts.wp_next_seq);
  ar.io(ts.wp_squash_at);
  ts.wp_rng.state_io(ar);
  ar.io(ts.awaited_branch_seq);
  ar.io(ts.last_fetch_line);
  ar.io(ts.committed);
  ar.io(ts.committed_base);
  ar.io(ts.fetched);
  ar.io(ts.fetched_base);
}

void Pipeline::state_io(persist::Archive& ar) {
  ar.section("pipeline");
  std::uint32_t thread_count = config_.thread_count;
  ar.io(thread_count);
  if (!ar.saving() && thread_count != config_.thread_count) {
    throw persist::PersistError("checkpoint: thread-count mismatch");
  }
  ar.io(cycle_);
  ar.io(stats_base_cycle_);
  ar.io(hang_last_total_);
  ar.io(hang_last_progress_);
  ar.io(commit_digest_.h);
  io_pipeline_stats(ar, pstats_);
  for (const auto& ts : threads_) thread_state_io(ar, *ts);
  rename_.state_io(ar);
  scheduler_->state_io(ar);
  fu_.state_io(ar);
  mem_.state_io(ar);
  bpred_.state_io(ar);
  broadcasts_.state_io(ar);
  for (std::optional<SeqNum>& f : pending_policy_flush_) {
    ar.io_optional(f, [](persist::Archive& a, SeqNum& seq) { a.io(seq); });
  }
  ar.io_sequence(stall_stats_, [](persist::Archive& a, ThreadStallStats& s) {
    a.io(s.ndi_blocked_cycles);
    a.io(s.iq_full_cycles);
    a.io(s.rob_full_cycles);
    a.io(s.lsq_full_cycles);
    a.io(s.fetch_starved_cycles);
  });
  tracer_.state_io(ar);
  occupancy_io(ar);
  interval_.state_io(ar);
}

void Pipeline::occupancy_io(persist::Archive& ar) {
  ar.section("stat-registry");
  const std::uint64_t expected = 3 * std::uint64_t{config_.thread_count} + 2;
  std::uint64_t count = expected;
  ar.io(count);
  if (!ar.saving() && count != expected) {
    throw persist::PersistError("checkpoint: sampled-gauge count mismatch (" +
                                std::to_string(count) + " in stream, " +
                                std::to_string(expected) + " expected)");
  }
  // Gauges are streamed tagged by name in a fixed order; a load verifies
  // both, so metric renames or reorderings fail loudly.
  for_each_occupancy(*this, [&ar](const std::string& name, StreamingStat& gauge) {
    std::string stored = name;
    ar.io(stored);
    if (!ar.saving() && stored != name) {
      throw persist::PersistError("checkpoint: sampled gauge '" + name +
                                  "' does not match stream entry '" + stored +
                                  "' (metric renamed or reordered)");
    }
    gauge.state_io(ar);
  });
}

void Pipeline::save_state(persist::Archive& ar) const {
  // state_io only reads the machine when `ar` is saving.
  MSIM_CHECK(ar.saving());
  const_cast<Pipeline*>(this)->state_io(ar);
}

void Pipeline::load_state(persist::Archive& ar) {
  MSIM_CHECK(!ar.saving());
  state_io(ar);
}

void io_pipeline_stats(persist::Archive& ar, PipelineStats& s) {
  ar.io(s.issued);
  ar.io(s.load_issue_blocked);
  ar.io(s.fetch_icache_stall_cycles);
  ar.io(s.watchdog_flushed_instructions);
  ar.io(s.fetch_l2_gated);
  ar.io(s.policy_flushes);
  ar.io(s.policy_flushed_instructions);
  ar.io(s.wrong_path_fetched);
  ar.io(s.wrong_path_issued);
  ar.io(s.wrong_path_squashes);
  ar.io(s.fault_commit_blocked_cycles);
  ar.io(s.fault_rob_denials);
  ar.io(s.fault_lsq_denials);
  ar.io(s.fault_extra_latency_cycles);
}

}  // namespace msim::smt
