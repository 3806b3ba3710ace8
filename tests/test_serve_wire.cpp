// Wire-layer units of the msim_serve daemon: HTTP framing, the JSON->
// KvConfig codec, the request-key partition against the CLI surface, the
// event log, the bounded priority queue (idempotency keys, TTL expiry)
// and the crash-recovering job ledger (torn tails, format versioning,
// restart-safe ids, recovery ordering).  End-to-end socket coverage lives
// in test_serve.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "persist/atomic_file.hpp"
#include "serve/codec.hpp"
#include "serve/http.hpp"
#include "serve/ledger.hpp"
#include "serve/queue.hpp"
#include "sim/cli_spec.hpp"

namespace msim::serve {
namespace {

// ---------------------------------------------------------------------------
// HTTP framing

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequestParser p;
  EXPECT_TRUE(p.consume("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  const HttpRequest req = p.take();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.headers.at("host"), "x");
  EXPECT_TRUE(req.body.empty());
  EXPECT_FALSE(p.complete());
}

TEST(HttpParser, ParsesPostBodyFedByteByByte) {
  const std::string raw =
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"config\":{}}";
  HttpRequestParser p;
  bool complete = false;
  for (const char c : raw) complete = p.consume(std::string_view(&c, 1));
  ASSERT_TRUE(complete);
  const HttpRequest req = p.take();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "{\"config\":{}}");
}

TEST(HttpParser, KeepsPipelinedBytesForTheNextRequest) {
  HttpRequestParser p;
  ASSERT_TRUE(
      p.consume("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(p.take().target, "/a");
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.take().target, "/b");
}

TEST(HttpParser, RejectsMalformedRequestLine) {
  HttpRequestParser p;
  try {
    p.consume("NONSENSE\r\n\r\n");
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_NE(std::string(e.what()).find("request line"), std::string::npos);
  }
}

TEST(HttpParser, RejectsMalformedHeaderAndContentLength) {
  {
    HttpRequestParser p;
    EXPECT_THROW(p.consume("GET / HTTP/1.1\r\nbogus header\r\n\r\n"),
                 HttpError);
  }
  {
    HttpRequestParser p;
    try {
      p.consume("GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n");
      FAIL() << "expected HttpError";
    } catch (const HttpError& e) {
      EXPECT_EQ(e.status(), 400);
    }
  }
}

TEST(HttpParser, RejectsOversizedBodyDeclarationWith413) {
  // A declared length beyond 64 bits is just as oversized, and named back.
  for (const std::string length : {"65", "99999999999999999999999"}) {
    HttpRequestParser p(/*max_head_bytes=*/1024, /*max_body_bytes=*/64);
    try {
      p.consume("POST / HTTP/1.1\r\nContent-Length: " + length + "\r\n\r\n");
      FAIL() << "expected HttpError for " << length;
    } catch (const HttpError& e) {
      EXPECT_EQ(e.status(), 413);
      EXPECT_NE(std::string(e.what()).find(length), std::string::npos);
    }
  }
}

TEST(HttpParser, RejectsOversizedHeadWith413) {
  HttpRequestParser p(/*max_head_bytes=*/64, /*max_body_bytes=*/64);
  const std::string junk(200, 'x');
  EXPECT_THROW(p.consume("GET / HTTP/1.1\r\nX: " + junk), HttpError);
}

TEST(HttpParser, RejectsChunkedRequestBodies) {
  HttpRequestParser p;
  try {
    p.consume("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_NE(std::string(e.what()).find("Content-Length"),
              std::string::npos);
  }
}

TEST(HttpFormat, ResponseAndChunkFraming) {
  const std::string resp =
      format_response(200, "application/json", "{}", /*keep_alive=*/true);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 2), "{}");

  EXPECT_EQ(format_chunk("hello"), "5\r\nhello\r\n");
  const std::string head = format_stream_head(200, "application/x-ndjson");
  EXPECT_NE(head.find("Transfer-Encoding: chunked\r\n"), std::string::npos);

  const std::string err = error_body(429, "queue full");
  const JsonValue doc = JsonValue::parse(err);
  EXPECT_EQ(doc.at("error").at("status").as_number(), 429.0);
  EXPECT_EQ(doc.at("error").at("message").as_string(), "queue full");
}

TEST(Socket, CloseEndsTheConnectionWhileAForkedChildHoldsACopy) {
  // The daemon forks sweep workers while client connections are open; a
  // worker's inherited copy of a connection must not delay the client's EOF
  // after the daemon closed its end.
  Listener listener("127.0.0.1", 0);
  Socket client = Listener::connect("127.0.0.1", listener.port(), 1000);
  Socket server = listener.accept(1000);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(server.valid());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::usleep(5'000'000);  // holds every inherited descriptor, then leaves
    ::_exit(0);
  }
  ASSERT_TRUE(server.write_all("bye", 1000));
  server.close();
  std::string got;
  IoStatus status = IoStatus::kOk;
  for (int reads = 0; reads < 4 && status == IoStatus::kOk; ++reads) {
    status = client.read_some(got, 64, /*timeout_ms=*/1000);
  }
  ::kill(child, SIGKILL);
  (void)::waitpid(child, nullptr, 0);
  EXPECT_EQ(got, "bye");
  EXPECT_EQ(status, IoStatus::kEof)
      << "the client saw no EOF while the child held its copy";
}

// ---------------------------------------------------------------------------
// JSON -> KvConfig codec

TEST(Codec, ScalarsBecomeCliSpellings) {
  const JsonValue doc = JsonValue::parse(
      R"({"benchmarks":"gcc,gzip","iq":64,"verify":true,)"
      R"("fault_intensity":0.25,"wrong_path":false})");
  const KvConfig kv = kv_from_json(doc);
  EXPECT_EQ(kv.get_string("benchmarks", ""), "gcc,gzip");
  EXPECT_EQ(kv.get_string("iq", ""), "64");  // integral: no decimal point
  EXPECT_EQ(kv.get_string("verify", ""), "1");
  EXPECT_EQ(kv.get_string("wrong_path", ""), "0");
  EXPECT_EQ(kv.get_double("fault_intensity", 0.0), 0.25);
}

TEST(Codec, RejectsNestedValuesWithTheOffendingKey) {
  const JsonValue doc = JsonValue::parse(R"({"iq":{"nested":1}})");
  try {
    (void)kv_from_json(doc);
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_NE(std::string(e.what()).find("config.iq"), std::string::npos);
  }
  EXPECT_THROW((void)kv_from_json(JsonValue::parse(R"({"iq":null})")),
               HttpError);
  EXPECT_THROW((void)kv_from_json(JsonValue::parse(R"({"iq":[1,2]})")),
               HttpError);
}

TEST(Codec, AcceptsEveryRequestKeyRejectsTheRest) {
  KvConfig ok;
  ok.set("sweep", "2");
  ok.set("iq", "32,64");
  ok.set("workers", "2");
  EXPECT_NO_THROW(validate_request_keys(ok));

  KvConfig rejected;
  rejected.set("stats_json", "/tmp/x.json");
  try {
    validate_request_keys(rejected);
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 400);
    // The documented reason from serve_rejected_keys() is echoed.
    EXPECT_NE(std::string(e.what()).find("/v1/jobs/<id>/result"),
              std::string::npos);
  }

  KvConfig unknown;
  unknown.set("iqq", "64");
  try {
    validate_request_keys(unknown);
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_NE(std::string(e.what()).find("iqq"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The serve surface cannot drift from the CLI surface (the same pattern as
// the cli_usage cross-checks in test_intervals.cpp).

TEST(ServeSpec, RequestAndRejectedKeysPartitionTheCliKeys) {
  std::set<std::string_view> cli(sim::cli_known_keys().begin(),
                                 sim::cli_known_keys().end());
  std::set<std::string_view> request(sim::serve_request_keys().begin(),
                                     sim::serve_request_keys().end());
  std::set<std::string_view> rejected;
  for (const sim::RejectedKey& r : sim::serve_rejected_keys()) {
    EXPECT_FALSE(r.reason.empty()) << r.key;
    rejected.insert(r.key);
  }
  // Disjoint...
  for (const auto& k : request) {
    EXPECT_FALSE(rejected.contains(k)) << k << " is both accepted and rejected";
  }
  // ...and together exactly the CLI key set.
  std::set<std::string_view> united = request;
  united.insert(rejected.begin(), rejected.end());
  EXPECT_EQ(united, cli)
      << "serve_request_keys + serve_rejected_keys must cover "
         "cli_known_keys exactly: a new CLI knob needs a wire decision";
}

TEST(ServeSpec, DaemonKeysAreDocumentedInServeUsage) {
  const std::string_view usage = sim::serve_usage();
  for (const std::string_view key : sim::serve_known_keys()) {
    if (key == "help") continue;  // spelled --help in the text
    std::string flag = "--" + std::string(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    EXPECT_NE(usage.find(flag), std::string_view::npos)
        << flag << " missing from serve_usage()";
  }
  for (const std::string_view flag : sim::serve_value_flags()) {
    EXPECT_NE(std::find(sim::serve_known_keys().begin(),
                        sim::serve_known_keys().end(), flag),
              sim::serve_known_keys().end())
        << flag << " takes a value but is not a known key";
  }
}

TEST(ServeSpec, RequestKeysAreValidCliKeys) {
  const auto cli = sim::cli_known_keys();
  for (const std::string_view key : sim::serve_request_keys()) {
    EXPECT_NE(std::find(cli.begin(), cli.end(), key), cli.end())
        << key << " accepted over the wire but unknown to msim_cli";
  }
}

// ---------------------------------------------------------------------------
// EventLog

TEST(EventLog, ReplayThenFollowThenClose) {
  EventLog log;
  log.append("a");
  log.append("b");
  std::string line;
  EXPECT_EQ(log.fetch(0, 10, line), EventLog::Fetch::kLine);
  EXPECT_EQ(line, "a");
  EXPECT_EQ(log.fetch(1, 10, line), EventLog::Fetch::kLine);
  EXPECT_EQ(line, "b");
  EXPECT_EQ(log.fetch(2, 10, line), EventLog::Fetch::kTimeout);

  std::thread writer([&] {
    log.append("c");
    log.close();
  });
  EXPECT_EQ(log.fetch(2, 5000, line), EventLog::Fetch::kLine);
  EXPECT_EQ(line, "c");
  EXPECT_EQ(log.fetch(3, 5000, line), EventLog::Fetch::kClosed);
  writer.join();
  log.append("after close is dropped");
  EXPECT_EQ(log.size(), 3u);
}

TEST(EventLog, OverflowDropsWithOneTruncationMarker) {
  EventLog log;
  for (std::size_t i = 0; i < EventLog::kMaxLines + 100; ++i) {
    log.append("x");
  }
  EXPECT_EQ(log.size(), EventLog::kMaxLines + 1);
  std::string line;
  ASSERT_EQ(log.fetch(EventLog::kMaxLines, 10, line), EventLog::Fetch::kLine);
  EXPECT_NE(line.find("events_truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JobQueue

std::shared_ptr<Job> make_job(JobQueue& q, int priority) {
  auto job = std::make_shared<Job>();
  job->id = q.allocate_id();
  job->priority = priority;
  return q.enqueue(std::move(job));
}

TEST(JobQueue, PriorityFirstFifoWithin) {
  JobQueue q(16);
  const auto low = make_job(q, 0);
  const auto high = make_job(q, 5);
  const auto low2 = make_job(q, 0);
  EXPECT_EQ(q.next_runnable()->id, high->id);
  EXPECT_EQ(q.next_runnable()->id, low->id);
  EXPECT_EQ(q.next_runnable()->id, low2->id);
}

TEST(JobQueue, DepthBoundRejectsWith429) {
  JobQueue q(2);
  (void)make_job(q, 0);
  (void)make_job(q, 0);
  try {
    (void)make_job(q, 0);
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 429);
    EXPECT_NE(std::string(e.what()).find("queue-depth"), std::string::npos);
  }
}

TEST(JobQueue, CancelQueuedIsImmediateCancelRunningRaisesTheFlag) {
  JobQueue q(16);
  const auto a = make_job(q, 0);
  const auto b = make_job(q, 0);
  EXPECT_TRUE(q.cancel(b->id));
  EXPECT_EQ(q.snapshot(*b).state, JobState::kCancelled);
  EXPECT_TRUE(b->events.closed());

  const auto running = q.next_runnable();
  ASSERT_EQ(running->id, a->id);
  EXPECT_TRUE(q.cancel(a->id));
  EXPECT_EQ(q.snapshot(*a).state, JobState::kRunning);
  EXPECT_TRUE(a->cancel.load());
  q.finish(*a, JobState::kCancelled, "", "cancelled while running");
  EXPECT_EQ(q.snapshot(*a).state, JobState::kCancelled);

  EXPECT_FALSE(q.cancel(999));
}

TEST(JobQueue, DrainCancelsQueuedAndRejectsNewSubmissions) {
  JobQueue q(16);
  const auto queued = make_job(q, 0);
  q.drain(/*cancel_running=*/false);
  EXPECT_EQ(q.snapshot(*queued).state, JobState::kCancelled);
  EXPECT_TRUE(q.draining());
  EXPECT_TRUE(q.idle());
  try {
    (void)make_job(q, 0);
    FAIL() << "expected HttpError";
  } catch (const HttpError& e) {
    EXPECT_EQ(e.status(), 503);
  }
  EXPECT_EQ(q.next_runnable(), nullptr);  // draining + empty: executors exit
}

TEST(JobQueue, StatsCountStates) {
  JobQueue q(16);
  const auto a = make_job(q, 0);
  (void)make_job(q, 0);
  (void)q.next_runnable();
  q.finish(*a, JobState::kDone, "{}", "");
  const QueueStats s = q.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.queued, 1u);
  EXPECT_EQ(s.running, 0u);
}

// ---------------------------------------------------------------------------
// Idempotency keys and TTL expiry

TEST(JobQueue, IdempotencyKeyDedupesToTheExistingJob) {
  JobQueue q(16);
  auto first = std::make_shared<Job>();
  first->id = q.allocate_id();
  first->idempotency_key = "campaign-42";
  ASSERT_EQ(q.enqueue(first), first);

  // A resubmission with the same key returns the *original* job -- nothing
  // is enqueued, so the resubmitted job object is discarded.
  auto dup = std::make_shared<Job>();
  dup->id = q.allocate_id();
  dup->idempotency_key = "campaign-42";
  EXPECT_EQ(q.enqueue(dup), first);
  EXPECT_EQ(q.stats().submitted, 1u);
  EXPECT_EQ(q.stats().queued, 1u);

  // The dedupe holds after the job finished: the client still gets the
  // terminal job back, never a second execution.
  (void)q.next_runnable();
  q.finish(*first, JobState::kDone, "{}", "");
  auto late = std::make_shared<Job>();
  late->id = q.allocate_id();
  late->idempotency_key = "campaign-42";
  EXPECT_EQ(q.enqueue(late), first);
  EXPECT_EQ(q.stats().submitted, 1u);

  // A different key is a different job.
  auto other = std::make_shared<Job>();
  other->id = q.allocate_id();
  other->idempotency_key = "campaign-43";
  EXPECT_EQ(q.enqueue(other), other);
  EXPECT_EQ(q.stats().submitted, 2u);
}

TEST(JobQueue, TtlExpiresQueuedJobsTerminally) {
  JobQueue q(16);
  std::vector<std::pair<std::uint64_t, JobState>> transitions;
  q.set_transition_hook([&](const Job& job, JobState state) {
    transitions.emplace_back(job.id, state);
  });
  auto job = std::make_shared<Job>();
  job->id = q.allocate_id();
  job->ttl_ms = 1;
  ASSERT_EQ(q.enqueue(job), job);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.expire_overdue();

  EXPECT_EQ(q.snapshot(*job).state, JobState::kExpired);
  EXPECT_NE(q.snapshot(*job).error.find("ttl_ms=1"), std::string::npos);
  EXPECT_TRUE(job->events.closed());
  EXPECT_EQ(q.stats().expired, 1u);
  EXPECT_EQ(q.stats().queued, 0u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(job->id, JobState::kQueued));
  EXPECT_EQ(transitions[1], std::make_pair(job->id, JobState::kExpired));

  // An expired job is terminal: cancel is an idempotent no-op.
  EXPECT_TRUE(q.cancel(job->id));
  EXPECT_EQ(q.snapshot(*job).state, JobState::kExpired);

  // No TTL means no deadline: a fresh job without ttl_ms never expires.
  auto forever = std::make_shared<Job>();
  forever->id = q.allocate_id();
  ASSERT_EQ(q.enqueue(forever), forever);
  q.expire_overdue();
  EXPECT_EQ(q.snapshot(*forever).state, JobState::kQueued);
}

TEST(JobQueue, TransitionHookSeesTheFullLifecycle) {
  JobQueue q(16);
  std::vector<JobState> states;
  q.set_transition_hook(
      [&](const Job&, JobState state) { states.push_back(state); });
  const auto job = make_job(q, 0);
  (void)q.next_runnable();
  q.finish(*job, JobState::kDone, "{}", "");
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0], JobState::kQueued);
  EXPECT_EQ(states[1], JobState::kRunning);
  EXPECT_EQ(states[2], JobState::kDone);
}

TEST(JobQueue, RestorePreservesPriorityFifoAndFiresNoHooks) {
  JobQueue q(2);  // depth 2: restore must bypass the bound
  std::size_t hook_calls = 0;
  q.set_transition_hook([&](const Job&, JobState) { ++hook_calls; });
  q.set_next_id(9);

  // Replayed out of submission order, with one terminal job in between --
  // exactly what a ledger replay hands the queue.
  const auto restored = [&](std::uint64_t id, int priority, JobState state) {
    auto job = std::make_shared<Job>();
    job->id = id;
    job->priority = priority;
    job->state = state;
    if (state == JobState::kDone) job->result = "{}";
    q.restore(job);
    return job;
  };
  const auto low_late = restored(5, 0, JobState::kQueued);
  const auto done = restored(2, 9, JobState::kDone);
  const auto high = restored(4, 3, JobState::kQueued);
  const auto low_early = restored(3, 0, JobState::kQueued);

  EXPECT_EQ(hook_calls, 0u) << "the compacted ledger already has these";
  EXPECT_TRUE(done->events.closed());
  EXPECT_EQ(q.snapshot(*done).state, JobState::kDone);
  EXPECT_EQ(q.stats().done, 1u);

  // Dispatch order: highest priority first, then FIFO by original id --
  // the restart must not reshuffle the queue.
  EXPECT_EQ(q.next_runnable()->id, high->id);
  EXPECT_EQ(q.next_runnable()->id, low_early->id);
  EXPECT_EQ(q.next_runnable()->id, low_late->id);

  // set_next_id floors allocation above every replayed id: no reissue.
  EXPECT_EQ(q.allocate_id(), 9u);
  q.set_next_id(4);  // lowering is ignored
  EXPECT_EQ(q.allocate_id(), 10u);
}

// ---------------------------------------------------------------------------
// JobLedger

std::string ledger_dir(const std::string& stem) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (stem + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Job is pinned in place (atomics, event-log mutex), so the helper
/// appends the `accepted` record directly instead of returning one.
void record_accepted_job(JobLedger& ledger, std::uint64_t id, int priority,
                         bool sweep, const std::string& key = "",
                         std::uint64_t ttl_ms = 0) {
  Job job;
  job.id = id;
  job.priority = priority;
  job.is_sweep = sweep;
  job.idempotency_key = key;
  job.ttl_ms = ttl_ms;
  job.kv.set("sweep", sweep ? "2" : "0");
  job.kv.set("horizon", "1000");
  ledger.record_accepted(job);
}

TEST(JobLedger, LifecycleRoundTripsAcrossReopen) {
  const std::string dir = ledger_dir("msim-ledger-roundtrip");
  {
    JobLedger ledger(dir);
    EXPECT_TRUE(ledger.recovered().empty());
    EXPECT_EQ(ledger.next_id(), 1u);
    record_accepted_job(ledger, 1, 2, false);
    ledger.record_running(1);
    ledger.record_done(1, JobLedger::result_path(dir, 1));
    record_accepted_job(ledger, 2, 0, true);
    ledger.record_running(2);  // interrupted: no terminal record
    record_accepted_job(ledger, 3, 7, false);  // never started
  }
  JobLedger reopened(dir);
  EXPECT_EQ(reopened.next_id(), 4u) << "ids must never be reissued";
  ASSERT_EQ(reopened.recovered().size(), 3u);

  const LedgerJob& done = reopened.recovered()[0];
  EXPECT_EQ(done.id, 1u);
  EXPECT_EQ(done.priority, 2);
  EXPECT_TRUE(done.terminal);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_EQ(done.result_path, JobLedger::result_path(dir, 1));

  const LedgerJob& interrupted = reopened.recovered()[1];
  EXPECT_FALSE(interrupted.terminal);
  EXPECT_TRUE(interrupted.started);
  EXPECT_TRUE(interrupted.sweep);
  EXPECT_EQ(interrupted.kv.get_string("horizon", ""), "1000");

  const LedgerJob& queued = reopened.recovered()[2];
  EXPECT_FALSE(queued.started);
  EXPECT_EQ(queued.priority, 7);
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, TornTailIsTruncatedOnReplay) {
  const std::string dir = ledger_dir("msim-ledger-torn");
  {
    JobLedger ledger(dir);
    record_accepted_job(ledger, 1, 0, false);
    record_accepted_job(ledger, 2, 0, false);
    ledger.record_done(1, JobLedger::result_path(dir, 1));
  }
  // A kill -9 mid-append can at worst leave a partial final line; every
  // complete record before it must survive the replay.
  {
    std::ofstream out(dir + "/ledger.jsonl", std::ios::app);
    out << "{\"record\":\"done\",\"id\":2,\"resu";  // torn: no close, no \n
  }
  {
    JobLedger ledger(dir);
    ASSERT_EQ(ledger.recovered().size(), 2u);
    EXPECT_TRUE(ledger.recovered()[0].terminal);
    EXPECT_FALSE(ledger.recovered()[1].terminal)
        << "the torn `done` for job 2 must not count";
  }
  // The compaction rewrote the file: a third open sees a clean ledger with
  // no torn bytes (every line parses).
  std::ifstream in(dir + "/ledger.jsonl");
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW((void)JsonValue::parse(line)) << line;
  }
  EXPECT_GE(lines, 3u);  // header + 2 accepted (+ job 1's done)
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, CorruptMidFileRecordKeepsThePrefix) {
  const std::string dir = ledger_dir("msim-ledger-corrupt");
  {
    JobLedger ledger(dir);
    record_accepted_job(ledger, 1, 0, false);
  }
  {
    std::ofstream out(dir + "/ledger.jsonl", std::ios::app);
    out << "NOT JSON AT ALL\n";
    out << "{\"record\":\"accepted\",\"id\":9,\"priority\":0,\"sweep\":false,"
           "\"config\":{}}\n";
  }
  JobLedger ledger(dir);
  // Replay stops at the first malformed line: job 9 (after the corruption)
  // is not trusted, job 1 (before it) is.
  ASSERT_EQ(ledger.recovered().size(), 1u);
  EXPECT_EQ(ledger.recovered()[0].id, 1u);

  // A record that parses but lacks a field is refused whole, not
  // half-applied: a `done` without its result_path leaves job 3 pending
  // (it re-runs), and compaction writes no empty result_path.
  persist::write_text_atomic(
      dir + "/ledger.jsonl",
      "{\"msim_job_ledger\": 1, \"next_id\": 1}\n"
      "{\"record\":\"accepted\",\"id\":3,\"priority\":0,\"sweep\":false,"
      "\"config\":{\"horizon\":\"1000\"}}\n"
      "{\"record\":\"done\",\"id\":3}\n");
  const JobLedger refused(dir);
  ASSERT_EQ(refused.recovered().size(), 1u);
  EXPECT_EQ(refused.recovered()[0].id, 3u);
  EXPECT_FALSE(refused.recovered()[0].terminal);
  EXPECT_EQ(persist::read_file(dir + "/ledger.jsonl").find("result_path"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, JobWithoutAnAcceptedRecordIsDroppedAndItsIdNeverReissued) {
  const std::string dir = ledger_dir("msim-ledger-unaccepted");
  // An executor's `running` for job 5 reached the file before the
  // submitter's `accepted`, and the daemon died between the two appends:
  // the client never got a 202 and the ledger never got the config.
  persist::write_text_atomic(dir + "/ledger.jsonl",
                             "{\"msim_job_ledger\": 1, \"next_id\": 1}\n"
                             "{\"record\":\"running\",\"id\":5}\n");
  {
    JobLedger ledger(dir);
    EXPECT_TRUE(ledger.recovered().empty())
        << "a config-less job would re-run with default knobs";
    EXPECT_EQ(ledger.next_id(), 6u);
  }
  EXPECT_EQ(persist::read_file(dir + "/ledger.jsonl").find("accepted"),
            std::string::npos)
      << "compaction must not invent an `accepted` record";
  {
    JobLedger reopened(dir);
    EXPECT_TRUE(reopened.recovered().empty());
    EXPECT_EQ(reopened.next_id(), 6u) << "the dropped id must stay reserved";
  }

  // A `running` that merely precedes its own `accepted` in the file still
  // merges into a recovered, interrupted job.
  persist::write_text_atomic(
      dir + "/ledger.jsonl",
      "{\"msim_job_ledger\": 1, \"next_id\": 6}\n"
      "{\"record\":\"running\",\"id\":7}\n"
      "{\"record\":\"accepted\",\"id\":7,\"priority\":0,\"sweep\":false,"
      "\"config\":{\"horizon\":\"1000\"}}\n");
  JobLedger reordered(dir);
  ASSERT_EQ(reordered.recovered().size(), 1u);
  EXPECT_EQ(reordered.recovered()[0].id, 7u);
  EXPECT_TRUE(reordered.recovered()[0].started);
  EXPECT_EQ(reordered.recovered()[0].kv.get_string("horizon", ""), "1000");
  EXPECT_EQ(reordered.next_id(), 8u);

  // An `accepted` without its config is no accepted record at all: the
  // job must not re-run with default knobs, and its id stays reserved.
  persist::write_text_atomic(
      dir + "/ledger.jsonl",
      "{\"msim_job_ledger\": 1, \"next_id\": 1}\n"
      "{\"record\":\"accepted\",\"id\":9,\"priority\":0,"
      "\"sweep\":false}\n");
  const JobLedger configless(dir);
  EXPECT_TRUE(configless.recovered().empty());
  EXPECT_EQ(configless.next_id(), 10u);
  EXPECT_EQ(persist::read_file(dir + "/ledger.jsonl").find("accepted"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, NumbersThatAreNotIntegersInRangeStopReplay) {
  const std::string dir = ledger_dir("msim-ledger-nonint");
  const std::string accepted_1 =
      "{\"record\":\"accepted\",\"id\":1,\"priority\":0,\"sweep\":false,"
      "\"config\":{}}\n";
  const std::string accepted_2 =
      "{\"record\":\"accepted\",\"id\":2,\"priority\":0,\"sweep\":false,"
      "\"config\":{}}\n";
  for (const std::string bad :
       {"{\"record\":\"running\",\"id\":1e300}\n",
        "{\"record\":\"running\",\"id\":1.5}\n",
        "{\"record\":\"running\",\"id\":-1}\n",
        "{\"record\":\"accepted\",\"id\":3,\"priority\":1e300,"
        "\"sweep\":false,\"config\":{}}\n",
        "{\"record\":\"accepted\",\"id\":3,\"priority\":0,\"ttl_ms\":2.5,"
        "\"sweep\":false,\"config\":{}}\n"}) {
    persist::write_text_atomic(dir + "/ledger.jsonl",
                               "{\"msim_job_ledger\": 1, \"next_id\": 1}\n" +
                                   accepted_1 + bad + accepted_2);
    JobLedger ledger(dir);
    ASSERT_EQ(ledger.recovered().size(), 1u) << bad;
    EXPECT_EQ(ledger.recovered()[0].id, 1u) << bad;
    EXPECT_FALSE(ledger.recovered()[0].started) << bad;
  }
  // The same numbers in the header make the file no ledger.
  persist::write_text_atomic(dir + "/ledger.jsonl",
                             "{\"msim_job_ledger\": 1, \"next_id\": 1e300}\n");
  EXPECT_THROW(JobLedger{dir}, persist::PersistError);
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, NewerFormatVersionIsRejectedActionably) {
  const std::string dir = ledger_dir("msim-ledger-newer");
  persist::write_text_atomic(
      dir + "/ledger.jsonl",
      "{\"msim_job_ledger\": 99, \"next_id\": 5}\n");
  try {
    JobLedger ledger(dir);
    FAIL() << "expected PersistError";
  } catch (const persist::PersistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find("newer"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, NonLedgerFileIsRejected) {
  const std::string dir = ledger_dir("msim-ledger-notledger");
  persist::write_text_atomic(dir + "/ledger.jsonl", "hello world\n");
  EXPECT_THROW(JobLedger{dir}, persist::PersistError);
  persist::write_text_atomic(dir + "/ledger.jsonl", "{\"other\": 1}\n");
  EXPECT_THROW(JobLedger{dir}, persist::PersistError);
  std::filesystem::remove_all(dir);
}

TEST(JobLedger, CompactionDropsNothingAndBoundsTheFile) {
  const std::string dir = ledger_dir("msim-ledger-compact");
  {
    JobLedger ledger(dir);
    record_accepted_job(ledger, 1, 1, false, "key-1", 60'000);
    ledger.record_running(1);
    ledger.record_failed(1, "boom");
    // Churn: repeated running/terminal pairs for one more job would grow
    // an append-only file forever; compaction keeps it bounded.
    record_accepted_job(ledger, 2, 0, false);
    ledger.record_running(2);
    ledger.record_cancelled(2, "client asked");
  }
  const auto size_after_first =
      std::filesystem::file_size(dir + "/ledger.jsonl");
  {
    JobLedger ledger(dir);
    ASSERT_EQ(ledger.recovered().size(), 2u);
    const LedgerJob& failed = ledger.recovered()[0];
    EXPECT_EQ(failed.state, JobState::kFailed);
    EXPECT_EQ(failed.error, "boom");
    EXPECT_EQ(failed.idempotency_key, "key-1");
    EXPECT_EQ(failed.ttl_ms, 60'000u);
    EXPECT_EQ(ledger.recovered()[1].state, JobState::kCancelled);
  }
  // Compaction drops the `running` records; reopening never grows the file.
  EXPECT_LE(std::filesystem::file_size(dir + "/ledger.jsonl"),
            size_after_first);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace msim::serve
