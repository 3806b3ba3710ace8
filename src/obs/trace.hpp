// Opt-in per-instruction lifecycle tracing.
//
// The pipeline (and scheduler, for dispatch-side events) record one compact
// event per stage transition into a bounded ring buffer:
//
//   fetch -> rename -> dispatch (or DAB insert) -> issue -> writeback ->
//   commit | squash
//
// Tracing is off by default (capacity 0): record() is an inlinable
// early-return, so the hot path pays one predictable branch.  When enabled,
// the ring holds the most recent `capacity` events; exporters turn the
// window into a Konata-compatible pipeline log ("Kanata\t0004", viewable in
// https://github.com/shioyadan/Konata) or a plain-text Gantt chart, and
// reconstruct_lifecycles() folds events back into per-instruction records
// so a blocked-dispatch episode or a DAB rescue can be inspected in tests.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::obs {

enum class TraceStage : std::uint8_t {
  kFetch,
  kRename,
  kDispatch,   ///< entered the issue queue
  kDabInsert,  ///< parked in the deadlock-avoidance buffer instead
  kIssue,
  kWriteback,  ///< result broadcast (scheduled at issue time)
  kCommit,
  kSquash,     ///< removed by a flush (wrong path, FLUSH policy, watchdog)
};

[[nodiscard]] std::string_view trace_stage_name(TraceStage stage) noexcept;

/// Event flag bits (OR-ed into TraceEvent::flags).
inline constexpr std::uint8_t kTraceFlagWrongPath = 1u << 0;
/// Dispatch bypassed at least one older NDI (out-of-order dispatch).
inline constexpr std::uint8_t kTraceFlagOooBypass = 1u << 1;
/// Issue was served from the deadlock-avoidance buffer.
inline constexpr std::uint8_t kTraceFlagFromDab = 1u << 2;
/// The instruction is a mispredicted branch.
inline constexpr std::uint8_t kTraceFlagMispredict = 1u << 3;

struct TraceEvent {
  Cycle cycle = 0;
  SeqNum seq = 0;
  ThreadId tid = 0;
  TraceStage stage = TraceStage::kFetch;
  std::uint8_t flags = 0;
};

class InstTracer {
 public:
  InstTracer() = default;

  /// Enables tracing with a ring of `capacity` events (0 disables).
  void enable(std::size_t capacity) {
    ring_.assign(capacity, TraceEvent{});
    head_ = 0;
    live_ = 0;
    dropped_ = 0;
  }

  [[nodiscard]] bool enabled() const noexcept { return !ring_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Hot path: no-op unless enabled.
  void record(Cycle cycle, ThreadId tid, SeqNum seq, TraceStage stage,
              std::uint8_t flags = 0) noexcept {
    if (ring_.empty()) return;
    ring_[head_] = TraceEvent{cycle, seq, tid, stage, flags};
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (live_ < ring_.size()) {
      ++live_;
    } else {
      ++dropped_;
    }
  }

  void clear() noexcept {
    head_ = 0;
    live_ = 0;
    dropped_ = 0;
  }

  /// The retained window in recording order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void state_io(persist::Archive& ar);

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Per-instruction lifecycle folded out of a trace window.  kCycleNever
/// marks stages the window did not capture.
struct InstLifecycle {
  ThreadId tid = 0;
  SeqNum seq = 0;
  Cycle fetch = kCycleNever;
  Cycle rename = kCycleNever;
  Cycle dispatch = kCycleNever;
  Cycle issue = kCycleNever;
  Cycle writeback = kCycleNever;
  Cycle commit = kCycleNever;
  Cycle squash = kCycleNever;
  bool dab_rescued = false;   ///< went through the deadlock-avoidance buffer
  bool ooo_bypass = false;    ///< dispatched past at least one older NDI
  bool wrong_path = false;
  bool mispredict = false;

  [[nodiscard]] bool committed() const noexcept { return commit != kCycleNever; }
  [[nodiscard]] bool squashed() const noexcept { return squash != kCycleNever; }
  /// Every stage from fetch through commit was captured.
  [[nodiscard]] bool complete() const noexcept {
    return fetch != kCycleNever && rename != kCycleNever &&
           dispatch != kCycleNever && issue != kCycleNever &&
           writeback != kCycleNever && commit != kCycleNever;
  }
};

/// Folds events into per-instruction lifecycles, ordered by first
/// appearance.  A re-fetch of a (tid, seq) already observed to commit or
/// squash (watchdog / FLUSH replay) starts a fresh record.
[[nodiscard]] std::vector<InstLifecycle> reconstruct_lifecycles(
    std::span<const TraceEvent> events);

/// Writes a Konata-compatible pipeline log ("Kanata\t0004" header; stages
/// F/R/Dp/Is/Wb with retire/flush records).
void write_konata(std::ostream& os, std::span<const TraceEvent> events);

/// Plain-text Gantt fallback: one row per instruction, one column per cycle
/// (F=fetch, R=rename, D=dispatch wait, I=issue..writeback, C=commit,
/// x=squashed, b=DAB residency).
void write_gantt(std::ostream& os, std::span<const TraceEvent> events,
                 std::size_t max_rows = 64);

}  // namespace msim::obs
