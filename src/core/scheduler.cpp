#include "core/scheduler.hpp"

#include <algorithm>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "core/state_io.hpp"

namespace msim::core {

Scheduler::Scheduler(const SchedulerConfig& config, unsigned thread_count,
                     unsigned dispatch_width, unsigned issue_width)
    : config_(config),
      thread_count_(thread_count),
      dispatch_width_(dispatch_width),
      issue_width_(issue_width),
      iq_(config.kind == SchedulerKind::kTagElimination
              ? IqLayout::tag_eliminated(config.iq_entries)
              : IqLayout::uniform(config.iq_entries,
                                  reduced_tag(config.kind) ? std::uint8_t{1}
                                                           : std::uint8_t{2})),
      buffers_(thread_count, Ring<SchedInst>(config.rename_buffer_entries)),
      dab_(thread_count),
      scan_(thread_count),
      block_reason_(thread_count, DispatchBlock::kNone),
      last_inserted_seq_(thread_count, 0),
      insert_seq_valid_(thread_count, 0),
      watchdog_remaining_(config.watchdog_timeout) {
  MSIM_CHECK(thread_count_ >= 1 && thread_count_ <= kMaxThreads);
  MSIM_CHECK(dispatch_width_ >= 1 && issue_width_ >= 1);
}

bool Scheduler::buffer_has_space(ThreadId tid) const {
  return !buffers_.at(tid).full();
}

std::uint32_t Scheduler::buffer_size(ThreadId tid) const {
  return buffers_.at(tid).size();
}

void Scheduler::insert(const SchedInst& inst) {
  auto& buf = buffers_.at(inst.tid);
  // Renaming is in order within a thread even under out-of-order dispatch
  // (Section 4), so insertions must arrive in consecutive program order.
  // (A watchdog flush resets the expectation: replay restarts at an older
  // sequence number.)
  if (insert_seq_valid_[inst.tid]) {
    MSIM_CHECK(inst.seq == last_inserted_seq_[inst.tid] + 1);
  }
  insert_seq_valid_[inst.tid] = 1;
  last_inserted_seq_[inst.tid] = inst.seq;
  buf.push_back(inst);
}

void Scheduler::squash_younger(ThreadId tid, SeqNum after_seq) {
  auto& buf = buffers_.at(tid);
  while (!buf.empty() && buf.back().seq > after_seq) buf.pop_back();
  if (dab_.at(tid) && dab_.at(tid)->seq > after_seq) {
    dab_.at(tid).reset();
    --dab_live_;
  }
  iq_.squash_younger(tid, after_seq);
  // Replay restarts at an older sequence number.
  insert_seq_valid_.at(tid) = 0;
}

void Scheduler::flush() noexcept {
  for (auto& buf : buffers_) buf.clear();
  for (auto& slot : dab_) slot.reset();
  dab_live_ = 0;
  std::fill(insert_seq_valid_.begin(), insert_seq_valid_.end(), std::uint8_t{0});
  iq_.clear();
  watchdog_remaining_ = config_.watchdog_timeout;
}

bool Scheduler::dab_occupied(ThreadId tid) const { return dab_.at(tid).has_value(); }

std::uint32_t Scheduler::dab_occupancy() const noexcept { return dab_live_; }

void Scheduler::append_metrics(std::vector<obs::MetricSnapshot>& out,
                               const std::string& prefix) const {
  const std::string p = prefix + "dispatch.";
  const DispatchStats& d = dstats_;
  obs::append_counter(out, p + "cycles", d.cycles);
  obs::append_counter(out, p + "dispatched", d.dispatched);
  obs::append_counter(out, p + "dispatched_nonready0", d.dispatched_by_nonready[0]);
  obs::append_counter(out, p + "dispatched_nonready1", d.dispatched_by_nonready[1]);
  obs::append_counter(out, p + "dispatched_nonready2", d.dispatched_by_nonready[2]);
  obs::append_counter(out, p + "no_dispatch_cycles", d.no_dispatch_cycles);
  obs::append_ratio(out, p + "all_threads_ndi_stall_fraction",
                    d.all_threads_ndi_stall_cycles, d.cycles);
  obs::append_counter(out, p + "ndi_blocked_thread_cycles", d.ndi_blocked_thread_cycles);
  obs::append_counter(out, p + "iq_full_thread_cycles", d.iq_full_thread_cycles);
  obs::append_ratio(out, p + "hdi_fraction_behind_ndi", d.behind_ndi_hdis,
                    d.behind_ndi_examined);
  obs::append_counter(out, p + "ooo_dispatches", d.ooo_dispatches);
  obs::append_ratio(out, p + "ooo_dependent_fraction", d.ooo_dispatches_dependent,
                    d.ooo_dispatches);
  obs::append_counter(out, p + "filtered_suppressed", d.filtered_suppressed);
  obs::append_counter(out, p + "dab_inserts", d.dab_inserts);
  obs::append_counter(out, p + "dab_issues", d.dab_issues);
  obs::append_counter(out, p + "watchdog_flushes", d.watchdog_flushes);
  obs::append_counter(out, p + "fault_forced_ndis", d.fault_forced_ndis);
  obs::append_counter(out, p + "fault_iq_denials", d.fault_iq_denials);
  obs::append_counter(out, p + "fault_dropped_dispatches", d.fault_dropped_dispatches);

  const std::string q = prefix + "iq.";
  const IqStats& iq = iq_.stats();
  obs::append_counter(out, q + "dispatched", iq.dispatched);
  obs::append_counter(out, q + "issued", iq.issued);
  obs::append_counter(out, q + "broadcasts", iq.broadcasts);
  obs::append_counter(out, q + "wakeups", iq.wakeups);
  obs::append_counter(out, q + "comparator_ops", iq.comparator_ops);
  obs::append_gauge(out, q + "mean_occupancy", iq.mean_occupancy());
  obs::append_histogram(out, q + "residency_cycles", iq.residency);
  obs::append_gauge(out, q + "capacity", static_cast<double>(iq_.capacity()));
  obs::append_gauge(out, q + "comparators",
                    static_cast<double>(iq_.layout().comparators()));
}

std::uint32_t Scheduler::held_instructions(ThreadId tid) const {
  return buffer_size(tid) + (dab_.at(tid) ? 1u : 0u) + iq_.size_for(tid);
}

void Scheduler::state_io(persist::Archive& ar) {
  ar.section("scheduler");
  iq_.state_io(ar);
  // Rename buffers serialize their logical contents (program order); the
  // ring's physical head position is unobservable.
  for (Ring<SchedInst>& buf : buffers_) ar.io_ring(buf, "rename buffer", io_sched_inst);
  ar.io_sequence(dab_, [](persist::Archive& a, std::optional<SchedInst>& slot) {
    a.io_optional(slot, io_sched_inst);
  });
  ar.io(dab_live_);
  ar.io(block_reason_);
  ar.io(last_inserted_seq_);
  ar.io(insert_seq_valid_);
  ar.io(watchdog_remaining_);
  ar.io(rr_start_);
  if (!ar.saving() && rr_start_ >= thread_count_) {
    throw persist::PersistError("checkpoint: round-robin origin out of range");
  }
  io_dispatch_stats(ar, dstats_);
}

void io_dispatch_stats(persist::Archive& ar, DispatchStats& s) {
  ar.io(s.cycles);
  ar.io(s.dispatched);
  for (std::uint64_t& n : s.dispatched_by_nonready) ar.io(n);
  ar.io(s.no_dispatch_cycles);
  ar.io(s.all_threads_ndi_stall_cycles);
  ar.io(s.ndi_blocked_thread_cycles);
  ar.io(s.iq_full_thread_cycles);
  ar.io(s.behind_ndi_examined);
  ar.io(s.behind_ndi_hdis);
  ar.io(s.ooo_dispatches);
  ar.io(s.ooo_dispatches_dependent);
  ar.io(s.filtered_suppressed);
  ar.io(s.dab_inserts);
  ar.io(s.dab_issues);
  ar.io(s.watchdog_flushes);
  ar.io(s.fault_forced_ndis);
  ar.io(s.fault_iq_denials);
  ar.io(s.fault_dropped_dispatches);
}

}  // namespace msim::core
