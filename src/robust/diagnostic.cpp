#include "robust/diagnostic.hpp"

#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "core/sched_types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace msim::robust {

std::string diagnostic_bundle(const smt::Pipeline& pipe, const std::string& reason,
                              std::size_t max_trace_events) {
  const smt::MachineConfig& config = pipe.config();
  const core::Scheduler& sched = pipe.scheduler();

  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("report", "msim-diagnostic-bundle");
  w.kv("reason", reason);
  w.kv("cycle", pipe.cycles());

  w.key("config");
  w.begin_object();
  w.kv("thread_count", config.thread_count);
  w.kv("scheduler_kind", core::scheduler_kind_name(config.scheduler.kind));
  w.kv("deadlock_mode", core::deadlock_mode_name(config.scheduler.deadlock));
  w.kv("iq_entries", config.scheduler.iq_entries);
  w.kv("rename_buffer_entries", config.scheduler.rename_buffer_entries);
  w.kv("watchdog_timeout", config.scheduler.watchdog_timeout);
  w.kv("hang_cycles", config.hang_cycles);
  w.kv("rob_entries_per_thread", config.rob_entries_per_thread);
  w.kv("lsq_entries_per_thread", config.lsq_entries_per_thread);
  w.kv("fault_injection", config.fault_hooks != nullptr);
  w.end_object();

  // The stuck machine's shape: where is everything piled up?
  w.key("occupancy");
  w.begin_object();
  w.kv("iq", sched.iq().size());
  w.kv("iq_capacity", sched.iq().capacity());
  w.kv("dab", sched.dab_occupancy());
  w.key("threads");
  w.begin_array();
  for (ThreadId t = 0; t < config.thread_count; ++t) {
    w.begin_object();
    w.kv("tid", std::uint32_t{t});
    w.kv("committed", pipe.committed(t));
    w.kv("rob", pipe.rob_size(t));
    w.kv("lsq", pipe.lsq_size(t));
    w.kv("fetch_queue", pipe.fetch_queue_size(t));
    w.kv("rename_buffer", sched.buffer_size(t));
    w.kv("iq", sched.iq().size_for(t));
    w.kv("dab_occupied", sched.dab_occupied(t));
    w.kv("replay_depth", pipe.replay_depth(t));
    w.kv("block_reason", core::dispatch_block_name(sched.block_reason(t)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Every metric (counters, stall attribution, fault counters...).
  const std::vector<obs::MetricSnapshot> metrics = pipe.metrics();
  w.key("stats");
  w.begin_object();
  obs::write_metrics_fields(w, metrics);
  w.end_object();

  // The last events before the hang, when tracing was on.
  w.key("trace_tail");
  w.begin_array();
  if (pipe.tracer().enabled()) {
    const std::vector<obs::TraceEvent> events = pipe.tracer().events();
    const std::size_t start =
        events.size() > max_trace_events ? events.size() - max_trace_events : 0;
    for (std::size_t i = start; i < events.size(); ++i) {
      const obs::TraceEvent& e = events[i];
      w.begin_object();
      w.kv("cycle", e.cycle);
      w.kv("tid", std::uint32_t{e.tid});
      w.kv("seq", e.seq);
      w.kv("stage", obs::trace_stage_name(e.stage));
      w.kv("flags", std::uint32_t{e.flags});
      w.end_object();
    }
  }
  w.end_array();

  w.end_object();
  return os.str();
}

}  // namespace msim::robust
