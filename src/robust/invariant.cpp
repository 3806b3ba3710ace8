#include "robust/invariant.hpp"

#include <string>

#include "common/check.hpp"

namespace msim::robust {

namespace {

[[noreturn]] void violation(Cycle now, const std::string& what) {
  throw CheckError("invariant violation at cycle " + std::to_string(now) + ": " +
                   what);
}

}  // namespace

void InvariantChecker::on_commit(ThreadId tid, SeqNum seq, Cycle now) {
  if (commit_watch_.size() <= tid) commit_watch_.resize(tid + std::size_t{1});
  CommitWatch& w = commit_watch_[tid];
  if (w.seen && seq != w.next) {
    violation(now, "thread " + std::to_string(tid) + " committed seq " +
                       std::to_string(seq) + " but program order requires " +
                       std::to_string(w.next));
  }
  w.seen = true;
  w.next = seq + 1;
}

void InvariantChecker::on_cycle_end(const smt::Pipeline& pipe, Cycle now) {
  const core::Scheduler& sched = *pipe.scheduler_;
  const core::IssueQueue& iq = sched.iq();
  const smt::RenameUnit& rename = pipe.rename_;
  const smt::MachineConfig& config = pipe.config_;
  const unsigned threads = config.thread_count;

  std::uint32_t iq_sum = 0;
  unsigned inflight_int = 0;
  unsigned inflight_fp = 0;

  for (ThreadId t = 0; t < threads; ++t) {
    const auto& ts = *pipe.threads_[t];

    std::uint32_t unissued = 0;
    std::uint32_t mem_inflight = 0;
    ts.rob.for_each([&](const smt::RobEntry& e) {
      if (!e.issued) ++unissued;
      if (e.inst.is_mem()) ++mem_inflight;
      if (e.dest_phys != kNoPhysReg) {
        if (e.dest_phys < config.int_phys_regs) {
          ++inflight_int;
        } else {
          ++inflight_fp;
        }
      }
    });

    // 2. Dispatch-side accounting: every renamed, un-issued instruction is
    // in exactly one of {rename buffer, DAB, IQ}.
    const std::uint32_t dab = sched.dab_occupied(t) ? 1u : 0u;
    const std::uint32_t held = sched.buffer_size(t) + dab + iq.size_for(t);
    if (held != unissued) {
      violation(now, "thread " + std::to_string(t) + " scheduler holds " +
                         std::to_string(held) + " instructions (buffer " +
                         std::to_string(sched.buffer_size(t)) + " + dab " +
                         std::to_string(dab) + " + iq " +
                         std::to_string(iq.size_for(t)) + ") but the ROB has " +
                         std::to_string(unissued) + " un-issued entries");
    }
    iq_sum += iq.size_for(t);

    // 4. The DAB may only shelter the thread's oldest in-flight instruction
    // (that is the premise of the deadlock-avoidance argument in Section 4).
    if (const auto& slot = sched.dab_inst(t)) {
      if (ts.rob.empty() || slot->seq != ts.rob.head_seq()) {
        violation(now, "thread " + std::to_string(t) + " DAB holds seq " +
                           std::to_string(slot->seq) +
                           " which is not the thread's oldest in-flight "
                           "instruction (ROB head " +
                           (ts.rob.empty() ? std::string("<empty>")
                                           : std::to_string(ts.rob.head_seq())) +
                           ")");
      }
    }

    // 6. Every in-flight memory instruction occupies exactly one LSQ entry.
    if (ts.lsq.size() != mem_inflight) {
      violation(now, "thread " + std::to_string(t) + " LSQ holds " +
                         std::to_string(ts.lsq.size()) + " entries but the ROB has " +
                         std::to_string(mem_inflight) +
                         " in-flight memory instructions");
    }
  }

  // 3. Per-thread IQ occupancy must sum to the shared total.
  if (iq_sum != iq.size()) {
    violation(now, "per-thread IQ occupancies sum to " + std::to_string(iq_sum) +
                       " but the queue reports " + std::to_string(iq.size()));
  }

  // 5. Physical-register conservation per class: free list + one committed
  // mapping per (thread, arch reg) + in-flight destinations == total.
  const unsigned held_int =
      rename.free_int_regs() + threads * isa::kIntArchRegs + inflight_int;
  if (held_int != config.int_phys_regs) {
    violation(now, "int physical registers leak: free " +
                       std::to_string(rename.free_int_regs()) + " + committed " +
                       std::to_string(threads * isa::kIntArchRegs) +
                       " + in-flight " + std::to_string(inflight_int) + " = " +
                       std::to_string(held_int) + " of " +
                       std::to_string(config.int_phys_regs));
  }
  const unsigned held_fp =
      rename.free_fp_regs() + threads * isa::kFpArchRegs + inflight_fp;
  if (held_fp != config.fp_phys_regs) {
    violation(now, "fp physical registers leak: free " +
                       std::to_string(rename.free_fp_regs()) + " + committed " +
                       std::to_string(threads * isa::kFpArchRegs) +
                       " + in-flight " + std::to_string(inflight_fp) + " = " +
                       std::to_string(held_fp) + " of " +
                       std::to_string(config.fp_phys_regs));
  }
}

}  // namespace msim::robust
