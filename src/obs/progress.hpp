// Live progress event bus: the seam between long-running work (single runs,
// sweeps) and whoever wants to watch it (a terminal status line, a JSONL
// log, and eventually the sweep daemon's socket sink).
//
// Publishers (sim::run_simulation, sim::run_sweep) post ProgressEvents;
// the bus fans each event out to every subscribed ProgressSink under one
// mutex, so sweep workers can publish concurrently and sinks always see
// whole events in a consistent order.  Events carry simulated progress
// only (cycles, committed, cell counts) -- never wall-clock time -- so a
// JSONL progress log from a deterministic run is itself deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace msim::obs {

enum class ProgressKind : std::uint8_t {
  kRunStart = 0,      ///< a simulation begins (label = workload/scheduler)
  kIntervalTick,      ///< one interval captured (cycle, committed, ipc)
  kCheckpointSaved,   ///< a checkpoint reached disk (cycle)
  kRunFinish,         ///< a simulation completed (ok = not aborted)
  kSweepStart,        ///< a sweep begins (total = grid cells)
  kCellStart,         ///< one sweep cell begins (label = cell key)
  kCellRetry,         ///< an isolated cell failed and will retry (detail)
  kCellFinish,        ///< one sweep cell done (done/total, ok)
  kSweepFinish,       ///< the sweep completed (done/total)
  kWorkerSpawn,       ///< a sweep worker process forked (label = slot,
                      ///< total = incarnation)
  kWorkerDeath,       ///< a worker died unexpectedly (detail = diagnosis)
  kWorkerExit,        ///< a worker finished its shard and exited cleanly
};
inline constexpr std::size_t kProgressKindCount = 12;

[[nodiscard]] std::string_view progress_kind_name(ProgressKind kind) noexcept;

struct ProgressEvent {
  ProgressEvent() = default;
  explicit ProgressEvent(ProgressKind k) : kind(k) {}

  ProgressKind kind = ProgressKind::kRunStart;
  std::string label;            ///< run description or sweep-cell key
  std::uint64_t cycle = 0;      ///< absolute cycle (run-scoped events)
  std::uint64_t committed = 0;  ///< committed instructions so far
  double ipc = 0.0;             ///< interval IPC (kIntervalTick)
  std::uint64_t done = 0;       ///< completed cells (sweep-scoped events)
  std::uint64_t total = 0;      ///< grid size (sweep-scoped events)
  bool ok = true;               ///< false on failed cells / aborted runs
  std::string detail;           ///< error text (kCellRetry, failures)
};

/// Receives events synchronously, under the bus lock: implementations must
/// be fast and must not publish back into the bus.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void on_event(const ProgressEvent& event) = 0;
};

/// Thread-safe fan-out with per-kind publish counters.
class ProgressBus {
 public:
  ProgressBus() = default;
  ProgressBus(const ProgressBus&) = delete;
  ProgressBus& operator=(const ProgressBus&) = delete;

  /// Sinks are not owned and must outlive the bus's publishers.
  void subscribe(ProgressSink* sink);

  void publish(const ProgressEvent& event);

  [[nodiscard]] std::uint64_t published() const;
  [[nodiscard]] std::uint64_t published(ProgressKind kind) const;

 private:
  mutable std::mutex mu_;
  std::vector<ProgressSink*> sinks_;
  std::array<std::uint64_t, kProgressKindCount> counts_{};
};

/// One compact JSON object per event, one event per line.  Deterministic:
/// only event fields are written, never timestamps.  Zero-valued optional
/// fields are omitted, so run events stay small.
class JsonlProgressSink final : public ProgressSink {
 public:
  explicit JsonlProgressSink(std::ostream& os) : os_(os) {}
  void on_event(const ProgressEvent& event) override;

  /// The line written for `event` (no newline) -- exposed for tests.
  [[nodiscard]] static std::string format(const ProgressEvent& event);

 private:
  std::ostream& os_;
};

/// Human-oriented one-line-per-event status for a terminal (stderr).
class TerminalProgressSink final : public ProgressSink {
 public:
  explicit TerminalProgressSink(std::ostream& os) : os_(os) {}
  void on_event(const ProgressEvent& event) override;

 private:
  std::ostream& os_;
};

}  // namespace msim::obs
