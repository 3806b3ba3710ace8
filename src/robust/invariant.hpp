// Cycle-level structural invariant checking (opt-in: --verify / verify=1).
//
// Installed as a smt::PipelineObserver, the checker audits the machine
// after every cycle and on every commit.  A violation throws
// msim::CheckError with the cycle, thread and the disagreeing values, so a
// corrupted run dies loudly at the first bad cycle instead of producing
// silently wrong statistics thousands of cycles later.
//
// Invariants (see docs/ROBUSTNESS.md):
//   1. program-order commit: each thread commits seq N, N+1, N+2, ...
//   2. scheduler accounting: per thread, the un-issued ROB population
//      equals rename buffer + DAB + IQ occupancy (no dispatch-side leak)
//   3. IQ per-thread occupancy sums to total IQ occupancy
//   4. DAB holds only the thread's oldest in-flight instruction
//   5. rename free-list conservation: free + committed maps + in-flight
//      destinations account for every physical register of each class
//   6. LSQ occupancy equals the in-flight memory-instruction population
#pragma once

#include <vector>

#include "common/types.hpp"
#include "smt/pipeline.hpp"

namespace msim::robust {

class InvariantChecker final : public smt::PipelineObserver {
 public:
  InvariantChecker() = default;

  void on_commit(ThreadId tid, SeqNum seq, Cycle now) override;
  void on_cycle_end(const smt::Pipeline& pipe, Cycle now) override;

 private:
  struct CommitWatch {
    SeqNum next = 0;
    bool seen = false;  ///< first observed commit fixes the starting seq
  };

  std::vector<CommitWatch> commit_watch_;  ///< per thread, grown on demand
};

}  // namespace msim::robust
