// Wall-clock self-profiling for the simulator's own host performance.
//
// TimerRegistry accumulates host seconds per named stage; ScopeTimer is the
// RAII front end.  Benches use these to report host-time-per-stage and
// simulated-KIPS (thousands of simulated instructions per host second)
// alongside their simulated metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace msim::obs {

class TimerRegistry {
 public:
  struct Stage {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  /// One timed scope instance, for Chrome trace-event export: start is
  /// seconds since enable_spans(), tid is a dense per-registry thread
  /// index (0 = the first thread that recorded).  Only recorded while
  /// spans are enabled (off by default: aggregation-only costs no memory).
  struct Span {
    std::string name;
    std::uint32_t tid = 0;
    double start_s = 0.0;
    double dur_s = 0.0;
  };

  /// Thread-safe: sweep workers time their cells concurrently.
  void add(std::string_view name, double seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Stage& s : stages_) {
      if (s.name == name) {
        s.seconds += seconds;
        ++s.calls;
        return;
      }
    }
    stages_.push_back({std::string(name), seconds, 1});
  }

  /// Starts span recording; the call instant becomes the trace epoch
  /// (ts = 0).  Idempotent: later calls keep the original epoch.
  void enable_spans() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!spans_enabled_) {
      spans_enabled_ = true;
      epoch_ = std::chrono::steady_clock::now();
    }
  }

  /// Records one completed scope (no-op unless spans are enabled).  The
  /// calling thread is mapped to a dense tid on first use.
  void record_span(std::string_view name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!spans_enabled_) return;
    const auto [it, inserted] = thread_ids_.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(thread_ids_.size()));
    spans_.push_back(
        {std::string(name), it->second,
         std::chrono::duration<double>(start - epoch_).count(),
         std::chrono::duration<double>(end - start).count()});
  }

  [[nodiscard]] double seconds(std::string_view name) const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Stage& s : stages_) {
      if (s.name == name) return s.seconds;
    }
    return 0.0;
  }

  /// Snapshots (copies) -- safe to call while other threads still record.
  [[nodiscard]] std::vector<Stage> stages() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stages_;
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    stages_.clear();
    spans_.clear();
    thread_ids_.clear();
  }

  /// One line per stage: name, total seconds, calls, mean ms/call.
  void print(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<Stage> stages_;  ///< insertion order (stable for reports)
  std::vector<Span> spans_;    ///< completion order
  std::map<std::thread::id, std::uint32_t> thread_ids_;
  std::chrono::steady_clock::time_point epoch_{};
  bool spans_enabled_ = false;
};

/// Accumulates the scope's wall-clock duration into a TimerRegistry stage
/// (and, when span recording is enabled, logs the scope as a trace span).
class ScopeTimer {
 public:
  ScopeTimer(TimerRegistry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

  /// Seconds elapsed so far without stopping the timer.
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  ~ScopeTimer() {
    const auto end = std::chrono::steady_clock::now();
    registry_.add(name_, std::chrono::duration<double>(end - start_).count());
    registry_.record_span(name_, start_, end);
  }

 private:
  TimerRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// simulated-KIPS helper: thousands of simulated instructions per host
/// second (0 when no time elapsed).
[[nodiscard]] inline double simulated_kips(std::uint64_t instructions,
                                           double host_seconds) noexcept {
  return host_seconds > 0.0
             ? static_cast<double>(instructions) / host_seconds / 1000.0
             : 0.0;
}

}  // namespace msim::obs
