// The daemon's work queue: bounded, prioritized, cancellable.
//
// Submissions enter a priority queue (higher priority first, FIFO within a
// priority) with a hard depth bound -- a full queue rejects with 429
// instead of buffering unboundedly.  Executor threads pull jobs with
// next_runnable(); every state transition happens under the queue's one
// mutex, so status snapshots are always consistent.  Cancellation is
// two-faced: a queued job is removed and marked kCancelled immediately,
// a running job gets its cooperative cancel flag raised
// (sim::RunConfig::cancel) and stops at the simulator's next poll
// boundary -- its sweep journal stays resumable (docs/SERVICE.md).
//
// Durability hooks (docs/SERVICE.md "Durability & recovery"): a
// transition hook observes every state change *outside* the queue mutex,
// so the server can append fsync'd ledger records without serializing
// status reads behind disk writes.  Jobs may carry an idempotency key
// (enqueue dedupes a resubmission to the existing job) and a TTL
// (queued-too-long jobs transition to the terminal kExpired state instead
// of running stale).  restore() re-inserts jobs replayed from the ledger
// after a restart without firing hooks -- the compacted ledger already
// holds their records.
//
// Each job owns an EventLog: the runner appends formatted progress lines
// (obs::JsonlProgressSink::format) and any number of streaming readers
// replay-then-follow it, so a client can attach to a job's event stream
// before, during, or after the run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"

namespace msim::serve {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kExpired,
};

[[nodiscard]] std::string_view job_state_name(JobState state) noexcept;

/// Append-only, thread-safe line log with blocking readers.  Closed when
/// the producing job finishes; readers then drain the remaining lines and
/// see kClosed.  Capped at kMaxLines to bound daemon memory -- overflow
/// drops further lines after a single truncation marker.  Lines are kept
/// back to back in one buffer (per-line end offsets index it), trimmed to
/// size on close, since a finished job's log lives as long as the daemon.
class EventLog {
 public:
  static constexpr std::size_t kMaxLines = 65'536;

  enum class Fetch : std::uint8_t { kLine, kClosed, kTimeout };

  void append(std::string_view line);
  void close();

  /// Fetches the line at `index` into `line`, waiting up to `timeout_ms`:
  /// kLine on success, kClosed when the log ended before `index`,
  /// kTimeout when the line may still arrive.
  Fetch fetch(std::size_t index, int timeout_ms, std::string& line);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool closed() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string text_;               ///< every line, no separators
  std::vector<std::size_t> ends_;  ///< line i is text_[ends_[i-1], ends_[i])
  bool closed_ = false;
  bool truncated_ = false;
};

/// One submitted experiment.  `kv`, `is_sweep`, `journal_path`,
/// `priority`, `idempotency_key`, `ttl_ms`, `resume_sweep` and
/// `result_path` are immutable after enqueue; `state`/`result`/`error`
/// are guarded by the owning JobQueue's mutex (read them through
/// snapshot() and result_bytes()); `cancel` is the cooperative flag the
/// simulator polls; `events` has its own lock.
struct Job {
  std::uint64_t id = 0;
  int priority = 0;
  KvConfig kv;
  bool is_sweep = false;
  std::string journal_path;  ///< server-assigned; "" = unjournaled
  std::string idempotency_key;  ///< "" = no dedupe
  std::uint64_t ttl_ms = 0;     ///< max time queued; 0 = forever
  std::chrono::steady_clock::time_point deadline{};  ///< set when ttl_ms != 0
  bool resume_sweep = false;  ///< recovered job: resume from its journal
  std::string result_path;    ///< ledger-backed result file; "" = memory only
  std::atomic<bool> cancel{false};
  EventLog events;

  JobState state = JobState::kQueued;
  /// kDone: the exact bytes GET .../result serves, or nullopt when they
  /// are stored only in `result_path` (the daemon keeps no copy).
  std::optional<std::string> result;
  std::string error;  ///< failure text (kFailed / kCancelled / kExpired)
};

/// Consistent view of a job's mutable fields.
struct JobSnapshot {
  JobState state = JobState::kQueued;
  std::string error;
};

/// Aggregate queue counters for GET /v1/stats.
struct QueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
};

class JobQueue {
 public:
  /// Observes every state change: kQueued on accept, kRunning on
  /// dispatch, then exactly one terminal state.  Always invoked outside
  /// the queue mutex (it may fsync); transitions of *different* jobs may
  /// therefore reach the hook slightly out of submission order.
  using TransitionHook = std::function<void(const Job&, JobState)>;

  explicit JobQueue(std::size_t depth) : depth_(depth) {}

  /// Installs the transition hook.  Call before any executor starts.
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  /// Raises the id floor (ledger recovery: never reissue a replayed id).
  void set_next_id(std::uint64_t next_id);

  /// The next job id; ids are dense and start at 1.
  [[nodiscard]] std::uint64_t allocate_id();

  /// Enqueues a fully populated job and returns it -- unless the job
  /// carries an idempotency key already registered, in which case the
  /// *existing* job is returned and nothing is enqueued (the dedupe
  /// contract; compare the returned pointer).  Throws HttpError(429) when
  /// `depth` jobs are already queued and HttpError(503) once draining.
  [[nodiscard]] std::shared_ptr<Job> enqueue(std::shared_ptr<Job> job);

  /// Re-inserts a job replayed from the ledger: terminal jobs (state
  /// pre-set) are registered finished; anything else is
  /// re-enqueued bypassing the depth bound (it was already accepted).
  /// Fires no hooks -- the compacted ledger already records these jobs.
  void restore(std::shared_ptr<Job> job);

  /// Blocks until a job is runnable; nullptr once stop() was called or
  /// draining started and the queue is empty (the executor should exit).
  /// The returned job is already marked kRunning.  Jobs whose TTL lapsed
  /// while queued are expired instead of dispatched.
  [[nodiscard]] std::shared_ptr<Job> next_runnable();

  /// Expires every queued job whose deadline passed (also done lazily by
  /// next_runnable; status endpoints call this so expiry is observable
  /// even while all executors are busy).
  void expire_overdue();

  [[nodiscard]] std::shared_ptr<Job> find(std::uint64_t id) const;

  [[nodiscard]] JobSnapshot snapshot(const Job& job) const;

  /// Copy of a done job's in-memory result bytes; nullopt when they are
  /// stored only in job.result_path.
  [[nodiscard]] std::optional<std::string> result_bytes(const Job& job) const;

  /// Terminal transition; also closes the job's event log.  `result` is
  /// the bytes to keep in memory, or nullopt once they are stored in
  /// job.result_path.
  void finish(Job& job, JobState state, std::optional<std::string> result,
              std::string error);

  /// Queued -> kCancelled (dequeued, event log closed); running -> cancel
  /// flag raised.  False when the id is unknown.
  bool cancel(std::uint64_t id);

  /// Stops accepting work (enqueue -> 503) and cancels every queued job;
  /// running jobs keep going (pass cancel_running to stop them too).
  void drain(bool cancel_running);

  [[nodiscard]] bool draining() const;

  /// True when nothing is queued or running.
  [[nodiscard]] bool idle() const;

  /// Wakes every executor for shutdown; next_runnable() returns nullptr.
  void stop();

  [[nodiscard]] QueueStats stats() const;

 private:
  /// Removes overdue jobs from ready_ and marks them kExpired; the caller
  /// holds mu_ and must fire hooks / close event logs for the returned
  /// jobs after unlocking.
  std::vector<std::shared_ptr<Job>> collect_expired_locked(
      std::chrono::steady_clock::time_point now);

  void fire_hook(const Job& job, JobState state) const;

  std::size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> next_id_{1};
  TransitionHook hook_;
  /// Runnable jobs keyed (-priority, id): begin() is the highest priority,
  /// oldest submission.
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Job>> ready_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::map<std::string, std::shared_ptr<Job>, std::less<>> by_key_;
  std::size_t running_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t expired_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
};

}  // namespace msim::serve
