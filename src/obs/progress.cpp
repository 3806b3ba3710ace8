#include "obs/progress.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace msim::obs {

std::string_view progress_kind_name(ProgressKind kind) noexcept {
  switch (kind) {
    case ProgressKind::kRunStart:        return "run_start";
    case ProgressKind::kIntervalTick:    return "interval_tick";
    case ProgressKind::kCheckpointSaved: return "checkpoint_saved";
    case ProgressKind::kRunFinish:       return "run_finish";
    case ProgressKind::kSweepStart:      return "sweep_start";
    case ProgressKind::kCellStart:       return "cell_start";
    case ProgressKind::kCellRetry:       return "cell_retry";
    case ProgressKind::kCellFinish:      return "cell_finish";
    case ProgressKind::kSweepFinish:     return "sweep_finish";
    case ProgressKind::kWorkerSpawn:     return "worker_spawn";
    case ProgressKind::kWorkerDeath:     return "worker_death";
    case ProgressKind::kWorkerExit:      return "worker_exit";
  }
  return "unknown";
}

void ProgressBus::subscribe(ProgressSink* sink) {
  MSIM_CHECK(sink != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void ProgressBus::publish(const ProgressEvent& event) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<std::size_t>(event.kind)];
  for (ProgressSink* sink : sinks_) sink->on_event(event);
}

std::uint64_t ProgressBus::published() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts_) total += c;
  return total;
}

std::uint64_t ProgressBus::published(ProgressKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(kind)];
}

std::string JsonlProgressSink::format(const ProgressEvent& e) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("event", progress_kind_name(e.kind));
  if (!e.label.empty()) w.kv("label", e.label);
  if (e.cycle != 0) w.kv("cycle", e.cycle);
  if (e.committed != 0) w.kv("committed", e.committed);
  if (e.ipc != 0.0) w.kv("ipc", e.ipc);
  if (e.total != 0) {
    w.kv("done", e.done);
    w.kv("total", e.total);
  }
  if (!e.ok) w.kv("ok", e.ok);
  if (!e.detail.empty()) w.kv("detail", e.detail);
  w.end_object();
  return os.str();
}

void JsonlProgressSink::on_event(const ProgressEvent& event) {
  os_ << format(event) << '\n';
  os_.flush();  // one durable line per event, like the sweep journal's tail
}

void TerminalProgressSink::on_event(const ProgressEvent& e) {
  os_ << "[" << progress_kind_name(e.kind) << "]";
  if (!e.label.empty()) os_ << " " << e.label;
  if (e.kind == ProgressKind::kIntervalTick) {
    os_ << " cycle " << e.cycle << " committed " << e.committed << " ipc "
        << e.ipc;
  } else if (e.cycle != 0) {
    os_ << " cycle " << e.cycle;
  }
  if (e.total != 0) os_ << " (" << e.done << "/" << e.total << ")";
  if (!e.ok) os_ << " FAILED";
  if (!e.detail.empty()) os_ << ": " << e.detail;
  os_ << '\n';
}

}  // namespace msim::obs
