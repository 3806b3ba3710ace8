// Functional fast path for mode=sampled (docs/SAMPLING.md): executes the
// synthetic trace in program order, touching only the long-lived state a
// detailed region simulation inherits through a checkpoint -- caches,
// branch predictor, BTB, trace generators and the committed/fetched
// counters.  The cycle-level machinery (fetch queue, rename, IQ, ROB, LSQ,
// broadcasts) is bypassed entirely, which is what makes the pass several
// times faster than Pipeline::run; with a producer pool, trace generation
// (about half the per-instruction cost) overlaps with the state updates.
//
// Equivalence contract (verified by tests/test_sampled.cpp): under the
// default stall-on-mispredict front end (no wrong-path modeling, no FLUSH
// policy, no watchdog flushes), a detailed run fetches each thread's
// instructions in program order and trains the predictor once per fetched
// branch, so after a functional block of fetched(tid) instructions the
// per-thread gshare state and trace-generator state are bit-identical to
// the detailed run's.  Caches see the same access *sequence* but a
// different clock, so their tag contents match only where the interleaving
// matches (exactly for a single-thread L1I; statistically otherwise).
//
// Determinism contract: the shared caches and BTB are updated in one
// canonical order -- a round-robin of 64-instruction bursts over the live
// threads -- regardless of whether the trace was generated inline (serial
// path) or ahead of time by producer tasks (parallel path).  Producers only
// touch their own thread's generator and buffer, so the machine state after
// the call is bit-identical at any pool size.
#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "smt/pipeline.hpp"

namespace msim::smt {

namespace {

/// Burst length of the canonical round-robin order; also the producer's
/// publication grain, so a waiting consumer wakes exactly when its next
/// burst is complete.
constexpr std::uint64_t kBurst = 64;

/// One producer's output: the thread's next `target` instructions, with
/// `ready` published (release) every kBurst instructions.
struct ProducedStream {
  std::vector<isa::DynInst> buf;
  std::atomic<std::uint64_t> ready{0};
  std::exception_ptr error;
};

}  // namespace

std::vector<FunctionalDelta> Pipeline::run_functional(
    std::uint64_t per_thread_instructions, ThreadPool* pool) {
  const std::vector<std::uint64_t> targets(config_.thread_count,
                                           per_thread_instructions);
  return run_functional(std::span<const std::uint64_t>(targets), pool);
}

std::vector<FunctionalDelta> Pipeline::run_functional(
    std::span<const std::uint64_t> per_thread_targets, ThreadPool* pool) {
  MSIM_CHECK(per_thread_targets.size() == config_.thread_count);
  // Functional execution is only defined on an empty detailed pipeline: an
  // in-flight instruction would otherwise be silently re-executed.
  for (const auto& ts : threads_) {
    MSIM_CHECK(ts->fetch_queue.empty() && ts->rob.empty() &&
               ts->replay.empty() && !ts->pending);
  }

  std::vector<FunctionalDelta> out(config_.thread_count);
  const std::uint64_t line_bytes = config_.memory.l1i.line_bytes;
  const auto apply = [&](ThreadId tid, const isa::DynInst& di) {
    ThreadState& ts = *threads_[tid];
    FunctionalDelta& d = out[tid];
    const Addr line = di.pc / line_bytes;
    if (line != ts.last_fetch_line) {
      (void)mem_.access_inst(di.pc, cycle_);
      ts.last_fetch_line = line;
    }
    if (di.is_branch()) {
      bool correct_path = false;
      (void)bpred_.predict_and_train_full(tid, di.pc, di.taken, di.next_pc,
                                          &correct_path);
      ++d.branches;
      if (!correct_path) ++d.mispredicts;
    } else if (di.is_load()) {
      (void)mem_.access_data(di.mem_addr, /*is_store=*/false, cycle_);
      ++d.loads;
    } else if (di.is_store()) {
      (void)mem_.access_data(di.mem_addr, /*is_store=*/true, cycle_);
      ++d.stores;
    }
    ++ts.fetched;
    ++ts.committed;
    ++d.instructions;
    ++cycle_;
  };

  if (pool == nullptr || config_.thread_count <= 1) {
    // Serial path: generate and apply inline, in the canonical order.
    bool live = true;
    while (live) {
      live = false;
      for (ThreadId tid = 0; tid < config_.thread_count; ++tid) {
        if (out[tid].instructions >= per_thread_targets[tid]) continue;
        live = true;
        ThreadState& ts = *threads_[tid];
        const std::uint64_t burst =
            std::min(kBurst, per_thread_targets[tid] - out[tid].instructions);
        for (std::uint64_t i = 0; i < burst; ++i) apply(tid, ts.next_inst());
      }
    }
    return out;
  }

  // Parallel path: one producer task per thread pre-generates the trace
  // (each advances only its own thread's stream), while this thread
  // applies the shared-state updates in the canonical order, waiting on
  // the producers' published progress.  Producers always run to
  // completion, so the waits below cannot deadlock even on a
  // single-worker pool.
  std::vector<ProducedStream> streams(config_.thread_count);
  std::vector<std::future<void>> producers;
  producers.reserve(config_.thread_count);
  for (ThreadId tid = 0; tid < config_.thread_count; ++tid) {
    streams[tid].buf.resize(per_thread_targets[tid]);
    producers.push_back(pool->submit([this, tid, &streams, per_thread_targets] {
      ProducedStream& s = streams[tid];
      ThreadState& ts = *threads_[tid];
      const std::uint64_t target = per_thread_targets[tid];
      try {
        for (std::uint64_t i = 0; i < target; ++i) {
          s.buf[i] = ts.next_inst();
          if (((i + 1) % kBurst) == 0) {
            s.ready.store(i + 1, std::memory_order_release);
          }
        }
      } catch (...) {
        s.error = std::current_exception();
      }
      // Final (or poison) publication: the consumer never waits forever.
      s.ready.store(target, std::memory_order_release);
    }));
  }

  bool live = true;
  while (live) {
    live = false;
    for (ThreadId tid = 0; tid < config_.thread_count; ++tid) {
      if (out[tid].instructions >= per_thread_targets[tid]) continue;
      live = true;
      ProducedStream& s = streams[tid];
      const std::uint64_t base = out[tid].instructions;
      const std::uint64_t burst =
          std::min(kBurst, per_thread_targets[tid] - base);
      while (s.ready.load(std::memory_order_acquire) < base + burst) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < burst; ++i) apply(tid, s.buf[base + i]);
    }
  }
  for (auto& f : producers) f.get();
  for (const ProducedStream& s : streams) {
    if (s.error) std::rethrow_exception(s.error);
  }
  return out;
}

std::uint64_t Pipeline::fetched(ThreadId tid) const {
  return threads_.at(tid)->fetched;
}

bool Pipeline::has_pending_fetch(ThreadId tid) const {
  return threads_.at(tid)->pending.has_value();
}

void Pipeline::prime_fetch_lookahead(ThreadId tid) {
  (void)peek_next_inst(*threads_.at(tid));
}

const trace::TraceGenerator& Pipeline::generator(ThreadId tid) const {
  const ThreadState& ts = *threads_.at(tid);
  MSIM_CHECK(ts.gen.has_value());
  return *ts.gen;
}

}  // namespace msim::smt
