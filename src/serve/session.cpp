// HTTP routing for ExperimentServer: one function per endpoint.  The wire
// schema (URL shapes, status codes, body formats) is documented in
// docs/SERVICE.md -- keep the two in sync.
#include <charconv>
#include <optional>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "persist/atomic_file.hpp"
#include "serve/codec.hpp"
#include "serve/server.hpp"
#include "sim/cli_spec.hpp"

namespace msim::serve {

namespace {

/// "/v1/jobs/7/result" -> {"v1", "jobs", "7", "result"}.
std::vector<std::string> split_path(std::string_view target) {
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= target.size()) {
    const std::size_t slash = target.find('/', start);
    const std::size_t end =
        slash == std::string_view::npos ? target.size() : slash;
    if (end > start) out.emplace_back(target.substr(start, end - start));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return out;
}

/// The job id in a URL segment: not all digits is a 400; all digits but
/// too large for any issued id is nullopt -- no such job.
std::optional<std::uint64_t> parse_id(const std::string& s) {
  std::uint64_t id = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), id);
  if (ec == std::errc::invalid_argument || end != s.data() + s.size()) {
    throw HttpError(400, "job id must be a decimal integer, got '" + s + "'");
  }
  if (ec == std::errc::result_out_of_range) return std::nullopt;
  return id;
}

[[noreturn]] void method_not_allowed(const std::string& method,
                                     std::string_view allowed) {
  throw HttpError(405, "method " + method + " not allowed here (use " +
                           std::string(allowed) + ")");
}

}  // namespace

bool ExperimentServer::respond(Socket& sock, int status, std::string_view body,
                               bool keep_alive) {
  return sock.write_all(
      format_response(status, "application/json", body, keep_alive),
      config_.io_timeout_ms);
}

bool ExperimentServer::handle_request(Socket& sock,
                                      const HttpRequest& request) {
  const std::vector<std::string> path = split_path(request.target);

  if (path.size() == 1 && path[0] == "healthz") {
    if (request.method != "GET") method_not_allowed(request.method, "GET");
    return respond(sock, 200, "{\"ok\":true}\n", /*keep_alive=*/true);
  }
  if (path.size() == 2 && path[0] == "v1" && path[1] == "healthz") {
    if (request.method != "GET") method_not_allowed(request.method, "GET");
    return handle_readiness(sock);
  }
  if (path.size() == 2 && path[0] == "v1" && path[1] == "stats") {
    if (request.method != "GET") method_not_allowed(request.method, "GET");
    return handle_stats(sock);
  }
  if (path.size() == 2 && path[0] == "v1" && path[1] == "shutdown") {
    if (request.method != "POST") method_not_allowed(request.method, "POST");
    request_shutdown(/*cancel_running=*/false);
    return respond(sock, 200, "{\"draining\":true}\n", /*keep_alive=*/true);
  }
  if (path.size() == 2 && path[0] == "v1" && path[1] == "jobs") {
    if (request.method != "POST") method_not_allowed(request.method, "POST");
    return handle_submit(sock, request);
  }
  if ((path.size() == 3 || path.size() == 4) && path[0] == "v1" &&
      path[1] == "jobs") {
    const std::optional<std::uint64_t> id = parse_id(path[2]);
    const std::shared_ptr<Job> job = id ? queue_.find(*id) : nullptr;
    if (!job) {
      throw HttpError(404, "no job " + path[2] +
                               " (ids are returned by POST /v1/jobs)");
    }
    if (path.size() == 3) {
      if (request.method != "GET") method_not_allowed(request.method, "GET");
      return handle_job_get(sock, *job);
    }
    if (path[3] == "result") {
      if (request.method != "GET") method_not_allowed(request.method, "GET");
      return handle_result(sock, *job);
    }
    if (path[3] == "events") {
      if (request.method != "GET") method_not_allowed(request.method, "GET");
      return handle_events(sock, *job);
    }
    if (path[3] == "cancel") {
      if (request.method != "POST") {
        method_not_allowed(request.method, "POST");
      }
      return handle_cancel(sock, *id);
    }
  }
  throw HttpError(404, "no such endpoint: " + request.method + " " +
                           request.target + " (see docs/SERVICE.md)");
}

bool ExperimentServer::handle_submit(Socket& sock,
                                     const HttpRequest& request) {
  if (queue_.draining()) {
    throw HttpError(503, "server is draining; not accepting new jobs");
  }
  JsonValue doc = [&] {
    try {
      return JsonValue::parse(request.body);
    } catch (const std::exception& e) {
      throw HttpError(400, std::string("request body is not valid JSON: ") +
                               e.what());
    }
  }();
  if (!doc.is_object()) {
    throw HttpError(400,
                    "request body must be a JSON object: "
                    "{\"config\": {...}, \"priority\": N}");
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "config" && key != "priority" && key != "idempotency_key" &&
        key != "ttl_ms") {
      throw HttpError(400, "unknown request field \"" + key +
                               "\" (accepted: \"config\", \"priority\", "
                               "\"idempotency_key\", \"ttl_ms\")");
    }
  }
  if (!doc.contains("config")) {
    throw HttpError(400, "missing \"config\": the simulation knobs object");
  }
  int priority = 0;
  if (doc.contains("priority")) {
    try {
      priority = doc.at("priority").as_integer<int>();
    } catch (const std::invalid_argument&) {
      throw HttpError(400, "\"priority\" must be an integer");
    }
  }
  std::string idempotency_key;
  if (doc.contains("idempotency_key")) {
    const JsonValue& k = doc.at("idempotency_key");
    if (k.type() != JsonValue::Type::kString || k.as_string().empty()) {
      throw HttpError(400, "\"idempotency_key\" must be a non-empty string");
    }
    idempotency_key = k.as_string();
  }
  std::uint64_t ttl_ms = 0;
  if (doc.contains("ttl_ms")) {
    try {
      ttl_ms = doc.at("ttl_ms").as_integer<std::uint64_t>();
    } catch (const std::invalid_argument&) {
      // not an integer in range: refused below like 0
    }
    if (ttl_ms == 0) {
      throw HttpError(400,
                      "\"ttl_ms\" must be a positive integer (milliseconds "
                      "the job may wait in the queue before expiring)");
    }
  }

  KvConfig kv = kv_from_json(doc.at("config"));
  validate_request_keys(kv);

  // Build the job now through the builder run_job uses, so a knob the
  // engine would reject is a synchronous 400 with the builder's own
  // message, and only jobs that can run enter the queue.
  sim::JobMode mode = sim::JobMode::kRun;
  try {
    mode = sim::build_job(kv, kServedDefaultJobs).mode;
  } catch (const std::exception& e) {
    throw HttpError(400, std::string("invalid config: ") + e.what());
  }

  auto job = std::make_shared<Job>();
  job->id = queue_.allocate_id();
  job->priority = priority;
  job->kv = std::move(kv);
  job->is_sweep = mode == sim::JobMode::kSweep;
  job->idempotency_key = idempotency_key;
  job->ttl_ms = ttl_ms;
  if (!config_.journal_dir.empty()) {
    if (job->is_sweep) {
      job->journal_path =
          config_.journal_dir + "/job" + std::to_string(job->id) + ".jsonl";
    }
    job->result_path = JobLedger::result_path(config_.journal_dir, job->id);
  }
  // HttpError(429) when full; returns the already-registered job when the
  // idempotency key was seen before (dedupe happens atomically under the
  // queue mutex, so two racing resubmissions still yield one job).
  const std::shared_ptr<Job> accepted = queue_.enqueue(job);

  std::ostringstream body;
  if (accepted != job) {
    const JobSnapshot snap = queue_.snapshot(*accepted);
    body << "{\"id\":" << accepted->id << ",\"state\":\""
         << job_state_name(snap.state) << "\",\"deduplicated\":true}\n";
    return respond(sock, 200, body.str(), /*keep_alive=*/true);
  }
  body << "{\"id\":" << job->id << ",\"state\":\"queued\"}\n";
  return respond(sock, 202, body.str(), /*keep_alive=*/true);
}

std::string ExperimentServer::job_status_json(const Job& job) const {
  const JobSnapshot snap = queue_.snapshot(job);
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("id", job.id);
  w.kv("state", job_state_name(snap.state));
  w.kv("sweep", job.is_sweep);
  w.kv("priority", std::int64_t{job.priority});
  w.kv("events", static_cast<std::uint64_t>(job.events.size()));
  if (!snap.error.empty()) w.kv("error", snap.error);
  w.end_object();
  os << '\n';
  return os.str();
}

bool ExperimentServer::handle_job_get(Socket& sock, const Job& job) {
  // Lazy TTL enforcement: expiry is observable from status reads even
  // while every executor is busy with long sweeps.
  queue_.expire_overdue();
  return respond(sock, 200, job_status_json(job), /*keep_alive=*/true);
}

bool ExperimentServer::handle_result(Socket& sock, const Job& job) {
  queue_.expire_overdue();
  const JobSnapshot snap = queue_.snapshot(job);
  if (snap.state != JobState::kDone) {
    std::string message = "job " + std::to_string(job.id) +
                          " has no result: state is " +
                          std::string(job_state_name(snap.state));
    if (!snap.error.empty()) message += " (" + snap.error + ")";
    throw HttpError(409, message);
  }
  // The stored bytes are exactly what sim::write_run_json /
  // sim::write_sweep_json produced -- served untouched, so a client-side
  // `cmp` against the offline engine's file passes.  With --journal-dir
  // they live only in the result file, read afresh on every fetch.
  std::optional<std::string> bytes = queue_.result_bytes(job);
  if (!bytes) {
    try {
      bytes = persist::read_file(job.result_path);
    } catch (const std::exception& e) {
      throw HttpError(500, "job " + std::to_string(job.id) +
                               " is done but its stored result is gone: " +
                               e.what());
    }
  }
  return respond(sock, 200, *bytes, /*keep_alive=*/true);
}

bool ExperimentServer::handle_cancel(Socket& sock, std::uint64_t id) {
  (void)queue_.cancel(id);  // the id was resolved by the router
  const std::shared_ptr<Job> job = queue_.find(id);
  return respond(sock, 200, job_status_json(*job), /*keep_alive=*/true);
}

bool ExperimentServer::handle_events(Socket& sock, Job& job) {
  if (!sock.write_all(format_stream_head(200, "application/x-ndjson"),
                      config_.io_timeout_ms)) {
    return false;
  }
  std::size_t index = 0;
  while (true) {
    std::string line;
    const EventLog::Fetch fetched =
        job.events.fetch(index, /*timeout_ms=*/200, line);
    if (fetched == EventLog::Fetch::kClosed) break;
    if (fetched == EventLog::Fetch::kTimeout) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    ++index;
    line += '\n';
    if (!sock.write_all(format_chunk(line), config_.io_timeout_ms)) {
      return false;  // client gone or too slow: drop, the job runs on
    }
  }
  (void)sock.write_all(std::string(kLastChunk), config_.io_timeout_ms);
  return false;  // chunked streams always close the connection
}

bool ExperimentServer::handle_readiness(Socket& sock) {
  // Readiness (vs the byte-stable /healthz liveness probe): recovery is
  // synchronous in start(), so a daemon answering here has already
  // replayed its ledger -- the counters say what that replay found.
  queue_.expire_overdue();
  const QueueStats qs = queue_.stats();
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("ok", true);
  w.kv("ready", true);
  w.key("recovery");
  w.begin_object();
  w.kv("enabled", recovery_.enabled);
  w.kv("replayed", recovery_.replayed);
  w.kv("completed", recovery_.completed);
  w.kv("requeued", recovery_.requeued);
  w.kv("resumed_sweeps", recovery_.resumed_sweeps);
  w.end_object();
  w.key("queue");
  w.begin_object();
  w.kv("queued", static_cast<std::uint64_t>(qs.queued));
  w.kv("running", static_cast<std::uint64_t>(qs.running));
  w.kv("depth", static_cast<std::uint64_t>(config_.queue_depth));
  w.kv("draining", queue_.draining());
  w.end_object();
  w.end_object();
  os << '\n';
  return respond(sock, 200, os.str(), /*keep_alive=*/true);
}

bool ExperimentServer::handle_stats(Socket& sock) {
  queue_.expire_overdue();
  const QueueStats qs = queue_.stats();
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.key("jobs");
  w.begin_object();
  w.kv("submitted", qs.submitted);
  w.kv("queued", static_cast<std::uint64_t>(qs.queued));
  w.kv("running", static_cast<std::uint64_t>(qs.running));
  w.kv("done", qs.done);
  w.kv("failed", qs.failed);
  w.kv("cancelled", qs.cancelled);
  w.kv("expired", qs.expired);
  w.end_object();
  w.kv("connections", connections());
  w.kv("baseline_caches", static_cast<std::uint64_t>(baselines_.size()));
  w.kv("queue_depth", static_cast<std::uint64_t>(config_.queue_depth));
  w.kv("max_inflight", std::uint64_t{config_.max_inflight});
  w.kv("draining", queue_.draining());
  w.end_object();
  os << '\n';
  return respond(sock, 200, os.str(), /*keep_alive=*/true);
}

}  // namespace msim::serve
