#include "serve/server.hpp"

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "obs/progress.hpp"
#include "persist/atomic_file.hpp"
#include "persist/signal.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"

namespace msim::serve {

namespace {

/// Bridges a job's progress bus onto its EventLog: one deterministic JSONL
/// line per event (obs::JsonlProgressSink::format), which the events
/// endpoint replays and follows.
class EventLogSink final : public obs::ProgressSink {
 public:
  explicit EventLogSink(EventLog& log) : log_(log) {}
  void on_event(const obs::ProgressEvent& event) override {
    log_.append(obs::JsonlProgressSink::format(event));
  }

 private:
  EventLog& log_;
};

}  // namespace

sim::BaselineCache& BaselineCachePool::get(const KvConfig& kv) {
  sim::BuiltRun built = sim::build_run_config(kv);
  sim::RunConfig& canon = built.config;
  // BaselineCache overrides benchmarks/kind/iq per (benchmark, iq) key, so
  // canonicalize them out of the pool key; null the per-job surfaces a
  // shared cache must not capture.
  canon.benchmarks.clear();
  canon.kind = core::SchedulerKind::kTraditional;
  canon.iq_entries = 0;
  canon.progress_bus = nullptr;
  canon.cancel = nullptr;
  canon.watch_signals = false;
  std::string key = std::to_string(canon.fingerprint());
  key += '|';
  key += kv.get_string("fault_intensity", "0");
  key += ',';
  key += kv.get_string("fault_seed", "1");
  key += ',';
  key += kv.get_string("fault_index", "0");

  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.canonical = std::move(built);
    entry.cache =
        std::make_unique<sim::BaselineCache>(entry.canonical.config);
    it = entries_.emplace(std::move(key), std::move(entry)).first;
  }
  return *it->second.cache;
}

std::size_t BaselineCachePool::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ExperimentServer::ExperimentServer(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queue_depth) {}

void ExperimentServer::recover_from_ledger() {
  recovery_.enabled = true;
  queue_.set_next_id(ledger_->next_id());
  for (const LedgerJob& rec : ledger_->recovered()) {
    ++recovery_.replayed;
    auto job = std::make_shared<Job>();
    job->id = rec.id;
    job->priority = rec.priority;
    job->kv = rec.kv;
    job->is_sweep = rec.sweep;
    job->idempotency_key = rec.idempotency_key;
    job->ttl_ms = rec.ttl_ms;
    if (job->is_sweep) {
      job->journal_path = config_.journal_dir + "/job" +
                          std::to_string(job->id) + ".jsonl";
    }
    job->result_path = JobLedger::result_path(config_.journal_dir, job->id);
    if (rec.terminal) {
      job->state = rec.state;
      job->error = rec.error;
      if (rec.state == JobState::kDone) {
        // The bytes stay on disk -- GET .../result reads them per fetch --
        // so recovery only checks that the file the ledger names opens.
        job->result_path = rec.result_path;
        if (!std::ifstream(job->result_path)) {
          job->state = JobState::kFailed;
          job->error = "recovered job's result file is unreadable: cannot "
                       "open '" + job->result_path + "' for reading";
        }
      }
      ++recovery_.completed;
    } else {
      // Queued or interrupted mid-run: both re-run.  A sweep resumes from
      // its journal (completed cells replay byte-identically; only
      // in-flight cells are recomputed), a single run or sampled estimate
      // simply re-runs -- deterministically, to the same bytes.
      job->resume_sweep = job->is_sweep;
      if (rec.started && job->is_sweep) ++recovery_.resumed_sweeps;
      ++recovery_.requeued;
    }
    queue_.restore(std::move(job));
  }
}

ExperimentServer::~ExperimentServer() { stop(); }

void ExperimentServer::start() {
  if (!config_.journal_dir.empty()) {
    // Replay + compact the job ledger before anything can bind the port or
    // pull work: a newer-format ledger throws here (msim_serve exits 2)
    // and a recovered pending job is back in the ready queue -- in its
    // original priority/FIFO slot, since ids are preserved and the queue
    // orders by (-priority, id) -- before the first executor starts.
    ledger_ = std::make_unique<JobLedger>(config_.journal_dir);
    recover_from_ledger();
    queue_.set_transition_hook([this](const Job& job, JobState state) {
      // Ledger appends must never take the daemon down mid-flight: a
      // failed fsync loses durability for this transition (recovery
      // re-runs the job, deterministically), which beats crashing the
      // executors.
      try {
        switch (state) {
          case JobState::kQueued: ledger_->record_accepted(job); break;
          case JobState::kRunning: ledger_->record_running(job.id); break;
          case JobState::kDone:
            ledger_->record_done(job.id, job.result_path);
            break;
          case JobState::kFailed:
            ledger_->record_failed(job.id, job.error);
            break;
          case JobState::kCancelled:
            ledger_->record_cancelled(job.id, job.error);
            break;
          case JobState::kExpired:
            ledger_->record_expired(job.id, job.error);
            break;
        }
      } catch (const std::exception& e) {
        std::cerr << "msim_serve: ledger append failed: " << e.what() << "\n";
      }
    });
  }
  listener_ = std::make_unique<Listener>(config_.host, config_.port);
  port_ = listener_->port();
  listen_thread_ = std::thread(&ExperimentServer::listen_loop, this);
  executors_.reserve(config_.max_inflight);
  for (unsigned i = 0; i < config_.max_inflight; ++i) {
    executors_.emplace_back(&ExperimentServer::executor_loop, this);
  }
}

void ExperimentServer::request_shutdown(bool cancel_running) {
  shutdown_.store(true, std::memory_order_release);
  queue_.drain(cancel_running);
}

bool ExperimentServer::finished() const {
  return shutdown_requested() && queue_.idle();
}

void ExperimentServer::stop() {
  if (stopping_.exchange(true)) return;
  // Release the listening descriptor only once the loop polling it has
  // been woken and joined: closing it under the loop races its reads.
  if (listener_) listener_->shutdown();
  if (listen_thread_.joinable()) listen_thread_.join();
  if (listener_) listener_->close();
  queue_.stop();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  // Sessions poll stopping_ between bounded reads; wait them out.
  while (sessions_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void ExperimentServer::listen_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket sock = listener_->accept(/*timeout_ms=*/200);
    if (!sock.valid()) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    sessions_.fetch_add(1, std::memory_order_acq_rel);
    std::thread([this, s = std::move(sock)]() mutable {
      session(std::move(s));
      sessions_.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
  }
}

void ExperimentServer::session(Socket sock) {
  HttpRequestParser parser(16 * 1024, config_.max_body_bytes);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Read one full request in bounded slices so stop() never waits long.
    int waited_ms = 0;
    bool fatal = false;
    try {
      while (!parser.complete()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        std::string bytes;
        constexpr int kSliceMs = 200;
        const IoStatus status = sock.read_some(bytes, 4096, kSliceMs);
        if (status == IoStatus::kEof || status == IoStatus::kError) return;
        if (status == IoStatus::kTimeout) {
          waited_ms += kSliceMs;
          if (waited_ms >= config_.io_timeout_ms) {
            if (parser.idle()) return;  // idle keep-alive: just drop
            (void)sock.write_all(
                format_response(408, "application/json",
                                error_body(408,
                                           "timed out waiting for the rest "
                                           "of the request"),
                                /*keep_alive=*/false),
                config_.io_timeout_ms);
            return;
          }
          continue;
        }
        waited_ms = 0;
        parser.consume(bytes);
      }
    } catch (const HttpError& e) {
      (void)sock.write_all(
          format_response(e.status(), "application/json",
                          error_body(e.status(), e.what()),
                          /*keep_alive=*/false),
          config_.io_timeout_ms);
      return;
    }
    HttpRequest request = parser.take();
    const bool close_after = request.wants_close();
    try {
      fatal = !handle_request(sock, request);
    } catch (const HttpError& e) {
      (void)respond(sock, e.status(), error_body(e.status(), e.what()),
                    /*keep_alive=*/false);
      fatal = true;
    } catch (const std::exception& e) {
      (void)respond(sock, 500, error_body(500, e.what()),
                    /*keep_alive=*/false);
      fatal = true;
    }
    if (fatal || close_after) return;
  }
}

void ExperimentServer::executor_loop() {
  while (std::shared_ptr<Job> job = queue_.next_runnable()) {
    run_job(job);
  }
}

void ExperimentServer::run_job(const std::shared_ptr<Job>& job) {
  obs::ProgressBus bus;
  EventLogSink sink(job->events);
  bus.subscribe(&sink);

  JobState final_state = JobState::kDone;
  std::optional<std::string> result;
  std::string error;
  try {
    sim::JobSpec spec = sim::build_job(job->kv, kServedDefaultJobs);
    sim::RunConfig& cfg = spec.config();
    cfg.progress_bus = &bus;
    cfg.cancel = &job->cancel;
    std::ostringstream out;
    switch (spec.mode) {
      case sim::JobMode::kRun:
        sim::write_run_json(out, cfg, sim::run_simulation(cfg));
        break;
      case sim::JobMode::kSampled:
        // The same engine and report writer msim_cli --sampled-json uses,
        // so the served bytes equal the offline file exactly
        // (write_sampled_json embeds no job count; the estimate is
        // bit-identical at any jobs= value).
        sim::write_sampled_json(out, cfg, spec.sampled,
                                sim::run_sampled(cfg, spec.sampled));
        break;
      case sim::JobMode::kSweep:
        spec.sweep.journal_path = job->journal_path;
        // A job recovered mid-sweep resumes from its own journal: completed
        // cells replay byte-identically, the rest are computed.
        spec.sweep.resume = job->resume_sweep && !job->journal_path.empty();
        spec.sweep.progress_bus = &bus;
        // Per-cell failures (crash isolation) degrade the grid, they do not
        // fail the job: the served JSON records them per mix exactly as the
        // offline engine would.
        sim::write_sweep_json(
            out, sim::run_sweep(spec.sweep, baselines_.get(job->kv)));
        break;
    }
    result = out.str();
  } catch (const persist::Cancelled&) {
    final_state = JobState::kCancelled;
    error = job->journal_path.empty()
                ? "cancelled while running"
                : "cancelled while running; journal '" + job->journal_path +
                      "' holds the completed cells (resumable offline with "
                      "msim_cli --resume)";
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }
  if (final_state == JobState::kDone && !job->result_path.empty()) {
    // Persist the result bytes *before* the finish hook appends the `done`
    // ledger record: a crash between the two re-runs the job on recovery
    // (deterministically, to the same bytes) instead of recording a result
    // that does not exist.  Once stored, the file is the only copy: a
    // finished job keeps its metadata and events, not its bytes.
    try {
      persist::write_text_atomic(job->result_path, *result);
      result.reset();
    } catch (const std::exception& e) {
      std::cerr << "msim_serve: cannot persist result for job " << job->id
                << ": " << e.what() << "\n";
    }
  }
  queue_.finish(*job, final_state, std::move(result), std::move(error));
}

}  // namespace msim::serve
