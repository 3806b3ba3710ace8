// msim_serve's engine: a TCP listener, a bounded priority queue, a fixed
// executor pool, and a shared baseline cache pool.
//
// Request flow (docs/ARCHITECTURE.md has the full diagram): the listener
// thread accepts sockets and hands each to a session thread; sessions
// parse HTTP requests (serve/http.hpp) and route them (serve/session.cpp);
// POST /v1/jobs validates the config synchronously -- JSON to KvConfig
// (serve/codec.hpp), key partition check against sim/cli_spec.hpp, then
// sim::build_job -- so every rejection is a 400 with the builder's own
// message, and only jobs that can run enter the queue.  Executor threads
// build each job again with sim::build_job and run it through the very
// engine msim_cli uses, which is why a served result is byte-identical to
// the offline run of the same config.
//
// Sweep jobs inherit the whole robustness stack: isolation=process shards
// the grid across robust::SweepSupervisor's forked workers, every finished
// cell is journaled under --journal-dir, and a cancelled job leaves its
// journal resumable by an offline `msim_cli --resume`.
//
// Durability (docs/SERVICE.md "Durability & recovery"): with
// --journal-dir set, every accepted job and every lifecycle transition is
// appended -- one fsync'd line at a time -- to the serve::JobLedger in
// that directory.  start() replays the ledger before accepting traffic:
// done jobs re-serve their stored result bytes verbatim, pending jobs
// re-enter the queue in their original priority/FIFO order, and a sweep
// that was running when the daemon died resumes from its own sweep
// journal, so a kill -9 costs only the in-flight cells.
//
// Determinism contract: every simulation byte a client receives is
// produced by the sim:: report writers from a job built by sim::build_job
// -- the daemon adds no fields, no timestamps, no reordering, at any
// --max-inflight or workers= count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.hpp"
#include "serve/ledger.hpp"
#include "serve/queue.hpp"
#include "sim/config_build.hpp"
#include "sim/experiment.hpp"

namespace msim::serve {

/// jobs= for a served job that names none: the job runs on its executor
/// thread, so --max-inflight bounds the daemon's simulation threads.
inline constexpr unsigned kServedDefaultJobs = 1;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  std::size_t queue_depth = 64;
  unsigned max_inflight = 2;  ///< executor threads (concurrent jobs)
  /// Durability root ("" = in-memory only): holds the crash-recovering
  /// job ledger DIR/ledger.jsonl, per-sweep-job journals
  /// DIR/job<id>.jsonl and done jobs' result files
  /// DIR/job<id>.result.json.  Paths are always assigned server-side;
  /// clients never name files on the server.
  std::string journal_dir;
  int io_timeout_ms = 10'000;  ///< per-socket inactivity budget
  std::size_t max_body_bytes = 1u << 20;
};

/// Shares sim::BaselineCache instances across jobs whose baselines are
/// interchangeable: keyed by the fingerprint of a canonicalized base
/// config (benchmarks/kind/iq cleared -- BaselineCache overrides them per
/// key -- pointers nulled) plus the fault knobs, which shape baseline
/// runs but are outside RunConfig::fingerprint().  Two concurrent sweep
/// jobs with the same horizon knobs thus compute each (benchmark, iq)
/// baseline once, single-flight.
class BaselineCachePool {
 public:
  /// The cache for `kv`'s equivalence class (created on first use).
  [[nodiscard]] sim::BaselineCache& get(const KvConfig& kv);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    sim::BuiltRun canonical;  ///< owns the fault injector the cache uses
    std::unique_ptr<sim::BaselineCache> cache;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// What start()'s ledger replay found, reported by GET /v1/healthz.
struct RecoveryStats {
  bool enabled = false;       ///< a --journal-dir ledger was replayed
  std::uint64_t replayed = 0;  ///< jobs in the ledger
  std::uint64_t completed = 0; ///< terminal jobs restored verbatim
  std::uint64_t requeued = 0;  ///< pending jobs re-enqueued
  std::uint64_t resumed_sweeps = 0;  ///< requeued sweeps resuming a journal
};

class ExperimentServer {
 public:
  explicit ExperimentServer(ServerConfig config);
  ~ExperimentServer();
  ExperimentServer(const ExperimentServer&) = delete;
  ExperimentServer& operator=(const ExperimentServer&) = delete;

  /// Binds the listener and spawns the listener + executor threads.
  /// Throws std::runtime_error when the address cannot be bound.
  void start();

  /// The bound port (after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting jobs (submissions get 503), cancel
  /// queued jobs, let running jobs finish -- or cancel them too when
  /// `cancel_running` (the second-signal path).  Status/result reads keep
  /// working until stop().
  void request_shutdown(bool cancel_running);

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Drain complete: shutdown requested and no job queued or running.
  [[nodiscard]] bool finished() const;

  /// Full teardown; joins every thread.  Idempotent; the destructor calls
  /// it.
  void stop();

  [[nodiscard]] std::uint64_t connections() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

 private:
  void recover_from_ledger();
  void listen_loop();
  void executor_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void session(Socket sock);

  // serve/session.cpp: HTTP routing.  Returns whether to keep the
  // connection alive for another request.
  bool handle_request(Socket& sock, const HttpRequest& request);
  bool respond(Socket& sock, int status, std::string_view body,
               bool keep_alive);
  bool handle_submit(Socket& sock, const HttpRequest& request);
  bool handle_job_get(Socket& sock, const Job& job);
  bool handle_result(Socket& sock, const Job& job);
  bool handle_cancel(Socket& sock, std::uint64_t id);
  bool handle_events(Socket& sock, Job& job);
  bool handle_stats(Socket& sock);
  bool handle_readiness(Socket& sock);
  [[nodiscard]] std::string job_status_json(const Job& job) const;

  ServerConfig config_;
  JobQueue queue_;
  std::unique_ptr<JobLedger> ledger_;
  RecoveryStats recovery_;
  BaselineCachePool baselines_;
  std::unique_ptr<Listener> listener_;
  std::uint16_t port_ = 0;
  std::thread listen_thread_;
  std::vector<std::thread> executors_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<int> sessions_{0};
};

}  // namespace msim::serve
