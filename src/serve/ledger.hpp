// The daemon's crash-recovering job ledger (docs/SERVICE.md, "Durability
// & recovery").
//
// A persist::AppendLog (docs/CHECKPOINT.md, "Append-only logs") at
// DIR/ledger.jsonl records every job the daemon ever accepted -- the full
// request (config knobs, priority, idempotency key, TTL) plus each
// lifecycle transition (accepted -> running -> done/failed/cancelled/
// expired, with the result file for done jobs), one line plus fsync each.
// Replay decodes every field of a record before merging it, and stops at
// the first record that does not decode (a torn tail from kill -9, or
// corruption): nothing of that record or any later one is applied, though
// its id, if readable, is never reissued.
//
// On startup the daemon replays the ledger (JobLedger::recovered()):
// terminal jobs are restored verbatim -- a done job's result file is
// re-served byte-identically -- and everything else is re-enqueued in its
// original priority/FIFO order; interrupted sweeps resume from their own
// sweep journal.  The header persists the id counter (next_id) so a
// restarted daemon never reissues a job id, and reopening compacts the
// file: the merged state is rewritten atomically with a fresh header, so
// the ledger's size is bounded by the live job set, not the daemon's
// lifetime.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "persist/atomic_file.hpp"
#include "serve/queue.hpp"

namespace msim::serve {

/// Bumped on incompatible record changes.  A ledger written by a NEWER
/// version is rejected with an actionable error (msim_serve exits 2)
/// instead of being silently misread.
inline constexpr std::uint32_t kLedgerFormatVersion = 1;

/// One job's merged ledger state after replay.
struct LedgerJob {
  std::uint64_t id = 0;
  int priority = 0;
  std::string idempotency_key;  ///< "" = none
  std::uint64_t ttl_ms = 0;     ///< 0 = no deadline
  bool sweep = false;
  KvConfig kv;
  bool accepted = false;  ///< saw the `accepted` record (replay drops the job if not)
  bool started = false;  ///< saw a `running` record (interrupted if not terminal)
  bool terminal = false;
  JobState state = JobState::kQueued;  ///< terminal state when `terminal`
  std::string error;
  std::string result_path;  ///< done jobs: atomic file holding the result bytes
};

class JobLedger {
 public:
  /// Opens (replaying and compacting) or creates `dir`/ledger.jsonl.
  /// Throws PersistError when the file is not a job ledger or was written
  /// by a newer format version, std::runtime_error on I/O failure.
  explicit JobLedger(const std::string& dir);

  /// Jobs replayed from the previous incarnation, ordered by id.  Valid
  /// (and immutable) after construction.
  [[nodiscard]] const std::vector<LedgerJob>& recovered() const noexcept {
    return recovered_;
  }

  /// max(header next_id, 1 + every id replay read, even in a refused
  /// record): the first id this incarnation may issue.
  [[nodiscard]] std::uint64_t next_id() const noexcept { return next_id_; }

  // Lifecycle appends: one fsync'd line each, serialized by an internal
  // mutex so concurrent executor threads never interleave partial lines.
  void record_accepted(const Job& job);
  void record_running(std::uint64_t id);
  void record_done(std::uint64_t id, const std::string& result_path);
  void record_failed(std::uint64_t id, const std::string& error);
  void record_cancelled(std::uint64_t id, const std::string& error);
  void record_expired(std::uint64_t id, const std::string& error);

  /// Where a done job's result bytes live: DIR/job<id>.result.json,
  /// written atomically *before* the `done` record is appended, so a crash
  /// between the two at worst re-runs the job (deterministically, to the
  /// same bytes).
  [[nodiscard]] static std::string result_path(const std::string& dir,
                                               std::uint64_t id);

 private:
  void append_line(const std::string& line);

  std::uint64_t next_id_ = 1;
  std::vector<LedgerJob> recovered_;
  std::mutex mu_;
  persist::AppendLog log_;  ///< last: its initializer replays into the above
};

}  // namespace msim::serve
