// End-to-end coverage of the msim_serve daemon over real TCP sockets: the
// byte-identity contract against the offline engine, every documented
// error status, queue backpressure, cancellation (including mid-sweep with
// a resumable journal), slow/truncated clients, and graceful drain.
// docs/SERVICE.md documents the behaviours exercised here.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/config.hpp"
#include "common/json.hpp"
#include "persist/atomic_file.hpp"
#include "serve/http.hpp"
#include "serve/ledger.hpp"
#include "serve/server.hpp"
#include "sim/config_build.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "sim/sampled.hpp"

namespace msim {
namespace {

using serve::ExperimentServer;
using serve::Listener;
using serve::ServerConfig;
using serve::Socket;

struct HttpResult {
  int status = 0;
  std::string body;  ///< bytes after the blank line (raw for chunked)
  std::string raw;
};

/// One request/response exchange.  Sends Connection: close and reads to
/// EOF, so `body` is complete for both fixed and chunked responses.
HttpResult http(std::uint16_t port, const std::string& method,
                const std::string& target, const std::string& body = "") {
  Socket sock = Listener::connect("127.0.0.1", port, /*timeout_ms=*/5000);
  EXPECT_TRUE(sock.valid());
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  EXPECT_TRUE(sock.write_all(req, 5000));

  HttpResult out;
  // Generous overall budget: jobs are tiny but CI machines are slow.
  for (int spins = 0; spins < 600; ++spins) {
    const serve::IoStatus status = sock.read_some(out.raw, 65536, 200);
    if (status == serve::IoStatus::kEof) break;
    if (status == serve::IoStatus::kError) break;
  }
  if (out.raw.size() > 12) out.status = std::stoi(out.raw.substr(9, 3));
  const std::size_t split = out.raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = out.raw.substr(split + 4);
  return out;
}

std::unique_ptr<ExperimentServer> start_server(ServerConfig config = {}) {
  auto server = std::make_unique<ExperimentServer>(config);
  server->start();
  return server;
}

/// Submits {"config": <config_json>} and returns the job id.
std::uint64_t submit(std::uint16_t port, const std::string& config_json,
                     int expected_status = 202) {
  const HttpResult r =
      http(port, "POST", "/v1/jobs", "{\"config\":" + config_json + "}");
  EXPECT_EQ(r.status, expected_status) << r.body;
  if (r.status != 202) return 0;
  return static_cast<std::uint64_t>(
      JsonValue::parse(r.body).at("id").as_number());
}

JsonValue job_status(std::uint16_t port, std::uint64_t id) {
  const HttpResult r =
      http(port, "GET", "/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(r.status, 200) << r.body;
  return JsonValue::parse(r.body);
}

std::string wait_state(std::uint16_t port, std::uint64_t id,
                       const std::vector<std::string>& terminal) {
  for (int spins = 0; spins < 1200; ++spins) {
    const std::string state =
        job_status(port, id).at("state").as_string();
    for (const std::string& t : terminal) {
      if (state == t) return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return "timeout";
}

KvConfig make_kv(
    std::initializer_list<std::pair<const char*, const char*>> pairs) {
  KvConfig kv;
  for (const auto& [k, v] : pairs) kv.set(k, v);
  return kv;
}

/// What msim_cli --stats-json would write for this config.
std::string offline_run_json(const KvConfig& kv) {
  sim::BuiltRun built = sim::build_run_config(kv);
  const sim::RunResult result = sim::run_simulation(built.config);
  std::ostringstream os;
  sim::write_run_json(os, built.config, result);
  return os.str();
}

/// What msim_cli --sweep-json would write, at `jobs` concurrency.
std::string offline_sweep_json(const KvConfig& kv, unsigned jobs,
                               const std::string& journal = "",
                               bool resume = false) {
  sim::BuiltRun built = sim::build_run_config(kv);
  sim::SweepRequest req = sim::build_sweep_request(
      kv, built.config,
      static_cast<unsigned>(kv.get_uint("sweep", 2)), jobs);
  req.journal_path = journal;
  req.resume = resume;
  sim::BaselineCache baselines(built.config);
  const std::vector<sim::SweepCell> cells = sim::run_sweep(req, baselines);
  std::ostringstream os;
  sim::write_sweep_json(os, cells);
  return os.str();
}

std::string temp_dir(const std::string& stem) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (stem + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(path);
  return path;
}

// A config whose single run takes long enough to cancel but finishes fast
// when left alone is hard to pin down on arbitrary CI machines, so "long"
// jobs here use an enormous horizon and are always cancelled.
constexpr const char* kLongRun =
    R"({"benchmarks":"gcc","warmup":0,"horizon":500000000})";

TEST(Serve, HealthzAndStatsRespond) {
  const auto server = start_server();
  const HttpResult health = http(server->port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"ok\":true}\n");

  const HttpResult stats = http(server->port(), "GET", "/v1/stats");
  EXPECT_EQ(stats.status, 200);
  const JsonValue doc = JsonValue::parse(stats.body);
  EXPECT_EQ(doc.at("jobs").at("submitted").as_number(), 0.0);
  EXPECT_FALSE(doc.at("draining").as_bool());
}

TEST(Serve, SingleRunIsByteIdenticalToTheOfflineEngine) {
  const auto server = start_server();
  const std::uint64_t id = submit(
      server->port(),
      R"({"benchmarks":"gcc,gzip","warmup":1000,"horizon":4000,"seed":7})");
  ASSERT_EQ(wait_state(server->port(), id, {"done", "failed"}), "done");

  const HttpResult result =
      http(server->port(), "GET", "/v1/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(result.status, 200);
  const std::string offline = offline_run_json(make_kv({{"benchmarks",
                                                         "gcc,gzip"},
                                                        {"warmup", "1000"},
                                                        {"horizon", "4000"},
                                                        {"seed", "7"}}));
  EXPECT_EQ(result.body, offline)
      << "served bytes must match msim_cli --stats-json exactly";
}

TEST(Serve, SweepIsByteIdenticalAtAnyConcurrency) {
  ServerConfig config;
  config.max_inflight = 2;
  const auto server = start_server(config);
  const std::string cfg =
      R"({"sweep":2,"sched":"2op_block_ooo","iq":"32,64",)"
      R"("warmup":200,"horizon":1000,"jobs":2})";
  // Two identical jobs in flight at once: they share one pooled baseline
  // cache and must serve identical bytes.
  const std::uint64_t a = submit(server->port(), cfg);
  const std::uint64_t b = submit(server->port(), cfg);
  ASSERT_EQ(wait_state(server->port(), a, {"done", "failed"}), "done");
  ASSERT_EQ(wait_state(server->port(), b, {"done", "failed"}), "done");

  const std::string ra =
      http(server->port(), "GET", "/v1/jobs/" + std::to_string(a) + "/result")
          .body;
  const std::string rb =
      http(server->port(), "GET", "/v1/jobs/" + std::to_string(b) + "/result")
          .body;
  EXPECT_EQ(ra, rb);

  // The offline engine at a *different* worker count (serial here, jobs=2
  // on the server) produces the same bytes.
  const KvConfig kv = make_kv({{"sweep", "2"},
                               {"sched", "2op_block_ooo"},
                               {"iq", "32,64"},
                               {"warmup", "200"},
                               {"horizon", "1000"},
                               {"jobs", "2"}});
  EXPECT_EQ(ra, offline_sweep_json(kv, /*jobs=*/1));

  const JsonValue stats = JsonValue::parse(
      http(server->port(), "GET", "/v1/stats").body);
  EXPECT_EQ(stats.at("baseline_caches").as_number(), 1.0)
      << "identical configs must share one pooled baseline cache";

  // Events replay after completion: the stream ends with the terminating
  // chunk and contains the sweep lifecycle.
  const HttpResult events =
      http(server->port(), "GET", "/v1/jobs/" + std::to_string(a) + "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.raw.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(events.body.find("sweep_start"), std::string::npos);
  EXPECT_NE(events.body.find("sweep_finish"), std::string::npos);
  EXPECT_GE(events.body.size(), 5u);
  EXPECT_EQ(events.body.substr(events.body.size() - 5), "0\r\n\r\n");
}

TEST(Serve, BadSubmissionsGetActionable400s) {
  const auto server = start_server();
  const auto post = [&](const std::string& body) {
    return http(server->port(), "POST", "/v1/jobs", body);
  };

  HttpResult r = post("{not json");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("not valid JSON"), std::string::npos);

  r = post("[1,2]");
  EXPECT_EQ(r.status, 400);

  // Deep nesting is refused by the parser, not by the session's stack; the
  // requests below show the daemon survived it.
  r = post(std::string(100'000, '['));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("not valid JSON"), std::string::npos);

  r = post(R"({"priority":1})");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("config"), std::string::npos);

  r = post(R"({"config":{},"extra":1})");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("extra"), std::string::npos);

  r = post(R"({"config":{"iqq":64}})");  // unknown knob: named back
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("iqq"), std::string::npos);

  // A server-incompatible CLI knob is rejected with its documented reason.
  r = post(R"({"config":{"stats_json":"/tmp/x.json"}})");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("/v1/jobs/<id>/result"), std::string::npos);

  r = post(R"({"config":{"sched":"bogus"}})");  // builder's own message
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("bogus"), std::string::npos);

  r = post(R"({"config":{"sweep":7}})");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("sweep"), std::string::npos);

  // Integer fields take integers that fit, never a cast of any number.
  for (const char* field :
       {R"("priority":1.5)", R"("priority":1e300)", R"("ttl_ms":1e300)",
        R"("ttl_ms":2.5)"}) {
    r = post(std::string(R"({"config":{"horizon":500},)") + field + "}");
    EXPECT_EQ(r.status, 400) << field;
    EXPECT_NE(r.body.find("must be"), std::string::npos) << field;
  }

  // What is accepted is what runs: a knob value that does not fit its
  // field, a backend knob the sweep's isolation does not take, or an IQ
  // list that does not parse is a 400 naming the knob, never a queued job
  // that fails (or aborts the daemon) later.
  const std::pair<const char*, const char*> unrunnable[] = {
      {R"({"sweep":2,"jobs":4294967296})", "jobs"},
      {R"({"sweep":4294967298})", "sweep"},
      {R"({"iq":4294967360})", "iq"},
      {R"({"sweep":2,"cell_timeout_ms":5})", "cell_timeout_ms"},
      {R"({"sweep":2,"isolation":"process","chaos":"kill@999"})", "chaos"},
      {R"({"sweep":2,"isolation":"process","isolate":"0"})", "isolate"},
      {R"({"sweep":2,"iq":"abc"})", "iq"},
  };
  for (const auto& [config, knob] : unrunnable) {
    r = post(std::string(R"({"config":)") + config + "}");
    EXPECT_EQ(r.status, 400) << config;
    EXPECT_NE(r.body.find(knob), std::string::npos) << config << ": " << r.body;
  }
}

TEST(Serve, RoutingErrorsUseTheRightStatusCodes) {
  const auto server = start_server();
  EXPECT_EQ(http(server->port(), "GET", "/nope").status, 404);
  EXPECT_EQ(http(server->port(), "GET", "/v1/jobs/999").status, 404);
  EXPECT_EQ(http(server->port(), "GET", "/v1/jobs/abc").status, 400);
  // All digits but beyond any issued id: no such job, not a server error.
  EXPECT_EQ(http(server->port(), "GET", "/v1/jobs/99999999999999999999999").status, 404);
  EXPECT_EQ(http(server->port(), "DELETE", "/healthz").status, 405);
  EXPECT_EQ(http(server->port(), "GET", "/v1/shutdown").status, 405);
  const HttpResult parse_err = http(server->port(), "BAD REQUEST", "LINE");
  EXPECT_EQ(parse_err.status, 400);
}

TEST(Serve, QueueOverflowRejectsWith429AndResultBeforeDoneIs409) {
  ServerConfig config;
  config.queue_depth = 1;
  config.max_inflight = 1;
  const auto server = start_server(config);

  const std::uint64_t running = submit(server->port(), kLongRun);
  ASSERT_EQ(wait_state(server->port(), running, {"running"}), "running");
  const std::uint64_t queued = submit(server->port(), kLongRun);

  // Queue full: backpressure, not buffering.
  const HttpResult overflow = http(server->port(), "POST", "/v1/jobs",
                                   std::string("{\"config\":") + kLongRun +
                                       "}");
  EXPECT_EQ(overflow.status, 429);
  EXPECT_NE(overflow.body.find("queue"), std::string::npos);

  // A job that has not finished serves 409 from .../result.
  const HttpResult early = http(
      server->port(), "GET", "/v1/jobs/" + std::to_string(queued) + "/result");
  EXPECT_EQ(early.status, 409);
  EXPECT_NE(early.body.find("queued"), std::string::npos);

  // Cancelling the queued job is immediate; the running one is cooperative.
  EXPECT_EQ(http(server->port(), "POST",
                 "/v1/jobs/" + std::to_string(queued) + "/cancel")
                .status,
            200);
  EXPECT_EQ(job_status(server->port(), queued).at("state").as_string(),
            "cancelled");
  EXPECT_EQ(http(server->port(), "POST",
                 "/v1/jobs/" + std::to_string(running) + "/cancel")
                .status,
            200);
  EXPECT_EQ(wait_state(server->port(), running, {"cancelled", "failed"}),
            "cancelled");
  const HttpResult after = http(
      server->port(), "GET",
      "/v1/jobs/" + std::to_string(running) + "/result");
  EXPECT_EQ(after.status, 409);
  EXPECT_NE(after.body.find("cancelled"), std::string::npos);
}

TEST(Serve, CancelMidSweepLeavesTheJournalResumable) {
  const std::string dir = temp_dir("msim-serve-journal");
  ServerConfig config;
  config.journal_dir = dir;
  const auto server = start_server(config);

  // Big enough that cancellation lands mid-grid on any machine.
  const std::string cfg =
      R"({"sweep":2,"iq":"32,48,64","warmup":2000,"horizon":30000})";
  const std::uint64_t id = submit(server->port(), cfg);

  // Wait until at least one cell finished (so the journal has content),
  // then cancel.
  for (int spins = 0; spins < 1200; ++spins) {
    const JsonValue status = job_status(server->port(), id);
    if (status.at("state").as_string() != "queued" &&
        status.at("events").as_number() >= 3.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(http(server->port(), "POST",
                 "/v1/jobs/" + std::to_string(id) + "/cancel")
                .status,
            200);
  const std::string state =
      wait_state(server->port(), id, {"cancelled", "done"});

  const std::string journal = dir + "/job" + std::to_string(id) + ".jsonl";
  const KvConfig kv = make_kv({{"sweep", "2"},
                               {"iq", "32,48,64"},
                               {"warmup", "2000"},
                               {"horizon", "30000"}});
  if (state == "cancelled") {
    const JsonValue status = job_status(server->port(), id);
    EXPECT_NE(status.at("error").as_string().find("resumable"),
              std::string::npos);
    ASSERT_TRUE(std::filesystem::exists(journal))
        << "a cancelled sweep must leave its journal behind";
    // Resuming the server-side journal offline completes the grid and
    // produces the same bytes as a fresh offline sweep.
    const std::string resumed =
        offline_sweep_json(kv, /*jobs=*/1, journal, /*resume=*/true);
    EXPECT_EQ(resumed, offline_sweep_json(kv, /*jobs=*/1));
  } else {
    // The grid beat the cancel on a fast machine: the served result must
    // still match the offline engine.
    const std::string served = http(server->port(), "GET",
                                    "/v1/jobs/" + std::to_string(id) +
                                        "/result")
                                   .body;
    EXPECT_EQ(served, offline_sweep_json(kv, /*jobs=*/1));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Serve, SlowAndTruncatedClientsCannotPinTheDaemon) {
  ServerConfig config;
  config.io_timeout_ms = 600;
  const auto server = start_server(config);

  // A stalled mid-request client gets 408 once the inactivity budget is
  // spent.
  {
    Socket sock = Listener::connect("127.0.0.1", server->port(), 5000);
    ASSERT_TRUE(sock.valid());
    ASSERT_TRUE(sock.write_all(
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 60\r\n\r\n{\"conf", 5000));
    std::string raw;
    for (int spins = 0; spins < 50; ++spins) {
      if (sock.read_some(raw, 4096, 200) == serve::IoStatus::kEof) break;
    }
    EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  }

  // A truncated frame (client hangs up mid-request) is dropped silently...
  {
    Socket sock = Listener::connect("127.0.0.1", server->port(), 5000);
    ASSERT_TRUE(sock.valid());
    ASSERT_TRUE(sock.write_all("GET /healthz HT", 5000));
    sock.close();
  }
  // ...and the daemon keeps serving.
  EXPECT_EQ(http(server->port(), "GET", "/healthz").status, 200);
}

// ---------------------------------------------------------------------------
// Durability & recovery (docs/SERVICE.md "Durability & recovery"): the
// crash-recovering job ledger, idempotent resubmission, TTL expiry, the
// readiness endpoint and mode=sampled over the wire.

/// Exactly what msim_cli --sampled-json writes for this config.
std::string offline_sampled_json(const KvConfig& kv) {
  sim::BuiltRun built = sim::build_run_config(kv);
  sim::SampledConfig scfg;
  scfg.region_length = kv.get_uint("region", scfg.region_length);
  scfg.detail_warmup = kv.get_uint("detail_warmup", scfg.detail_warmup);
  scfg.pilot = kv.get_uint("pilot", scfg.pilot);
  scfg.jobs = static_cast<unsigned>(kv.get_uint("jobs", 1));
  const sim::SampledResult r = sim::run_sampled(built.config, scfg);
  std::ostringstream os;
  sim::write_sampled_json(os, built.config, scfg, r);
  return os.str();
}

TEST(Serve, RestartReservesCompletedJobsAndNeverReissuesIds) {
  const std::string dir = temp_dir("msim-serve-restart");
  ServerConfig config;
  config.journal_dir = dir;
  const char* cfg = R"({"benchmarks":"gcc,gzip","warmup":500,"horizon":2000,"seed":3})";

  std::uint64_t id = 0;
  std::string first_bytes;
  {
    const auto server = start_server(config);
    id = submit(server->port(), cfg);
    ASSERT_EQ(wait_state(server->port(), id, {"done", "failed"}), "done");
    first_bytes = http(server->port(), "GET",
                       "/v1/jobs/" + std::to_string(id) + "/result")
                      .body;
    ASSERT_FALSE(first_bytes.empty());
  }  // daemon gone; only the --journal-dir ledger survives

  const auto server = start_server(config);
  // The readiness endpoint reports what the ledger replay found.
  const HttpResult hz = http(server->port(), "GET", "/v1/healthz");
  ASSERT_EQ(hz.status, 200);
  const JsonValue doc = JsonValue::parse(hz.body);
  EXPECT_TRUE(doc.at("ready").as_bool());
  EXPECT_TRUE(doc.at("recovery").at("enabled").as_bool());
  EXPECT_EQ(doc.at("recovery").at("replayed").as_number(), 1.0);
  EXPECT_EQ(doc.at("recovery").at("completed").as_number(), 1.0);
  EXPECT_EQ(doc.at("queue").at("depth").as_number(),
            static_cast<double>(config.queue_depth));

  // The completed job re-serves its stored bytes verbatim...
  const HttpResult again = http(
      server->port(), "GET", "/v1/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(again.body, first_bytes)
      << "a restart must not change a served result by one byte";
  EXPECT_EQ(job_status(server->port(), id).at("state").as_string(), "done");

  // ...and the persisted id counter means the recovered daemon never hands
  // the replayed job's id to a new submission.
  const std::uint64_t fresh = submit(server->port(), cfg);
  EXPECT_GT(fresh, id);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Serve, JournaledResultIsServedFromItsFileAndAMissingFileIsNamed) {
  const std::string dir = temp_dir("msim-serve-stored");
  ServerConfig config;
  config.journal_dir = dir;
  const auto server = start_server(config);
  const std::uint64_t id = submit(
      server->port(), R"({"sweep":2,"iq":"32","warmup":200,"horizon":1000})");
  ASSERT_EQ(wait_state(server->port(), id, {"done", "failed"}), "done");

  const KvConfig kv = make_kv({{"sweep", "2"},
                               {"iq", "32"},
                               {"warmup", "200"},
                               {"horizon", "1000"}});
  const std::string offline = offline_sweep_json(kv, /*jobs=*/1);
  const std::string target = "/v1/jobs/" + std::to_string(id) + "/result";
  const std::string file = serve::JobLedger::result_path(dir, id);
  EXPECT_EQ(persist::read_file(file), offline);
  for (int fetch = 0; fetch < 2; ++fetch) {
    const HttpResult r = http(server->port(), "GET", target);
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, offline) << "fetch " << fetch;
  }

  // The daemon keeps no copy of a stored result: once the file is gone, the
  // fetch is an error naming the file -- not stale bytes, not a dropped
  // connection -- and the job's status is untouched.
  std::filesystem::remove(file);
  const HttpResult gone = http(server->port(), "GET", target);
  EXPECT_EQ(gone.status, 500) << gone.raw;
  const JsonValue error = JsonValue::parse(gone.body).at("error");
  EXPECT_EQ(error.at("status").as_number(), 500.0);
  EXPECT_NE(error.at("message").as_string().find(file), std::string::npos)
      << gone.body;
  EXPECT_EQ(job_status(server->port(), id).at("state").as_string(), "done");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Serve, RestartResumesAnInterruptedSweepServerSide) {
  const std::string dir = temp_dir("msim-serve-resume");
  const KvConfig kv = make_kv({{"sweep", "2"},
                               {"iq", "32,48"},
                               {"warmup", "200"},
                               {"horizon", "1000"}});
  const std::string offline = offline_sweep_json(kv, /*jobs=*/1);

  // Fabricate the exact on-disk state a kill -9 mid-sweep leaves behind:
  // a ledger whose job 3 is `accepted`+`running` with no terminal record,
  // and a partial sweep journal holding only the first completed cell.
  const std::string journal = dir + "/job3.jsonl";
  (void)offline_sweep_json(kv, /*jobs=*/1, journal);  // full journal...
  {
    std::ifstream in(journal);
    std::string line, partial;
    for (int kept = 0; kept < 2 && std::getline(in, line); ++kept) {
      partial += line + "\n";  // ...cut to header + first cell
    }
    in.close();
    std::ofstream out(journal, std::ios::trunc);
    out << partial;
  }
  {
    serve::JobLedger ledger(dir);
    serve::Job job;
    job.id = 3;
    job.kv = kv;
    job.is_sweep = true;
    ledger.record_accepted(job);
    ledger.record_running(3);
  }

  ServerConfig config;
  config.journal_dir = dir;
  const auto server = start_server(config);
  const JsonValue hz =
      JsonValue::parse(http(server->port(), "GET", "/v1/healthz").body);
  EXPECT_EQ(hz.at("recovery").at("requeued").as_number(), 1.0);
  EXPECT_EQ(hz.at("recovery").at("resumed_sweeps").as_number(), 1.0);

  // The recovered job finishes server-side -- completed cells replayed
  // from the journal, the rest computed -- and serves bytes cmp-identical
  // to an uninterrupted offline run.
  ASSERT_EQ(wait_state(server->port(), 3, {"done", "failed"}), "done");
  const std::string served =
      http(server->port(), "GET", "/v1/jobs/3/result").body;
  EXPECT_EQ(served, offline);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Serve, IdempotentResubmissionDedupesAcrossRestart) {
  const std::string dir = temp_dir("msim-serve-idem");
  ServerConfig config;
  config.journal_dir = dir;
  const std::string body =
      R"({"config":{"benchmarks":"gcc","warmup":100,"horizon":500},)"
      R"("idempotency_key":"grid-7"})";

  std::uint64_t id = 0;
  {
    const auto server = start_server(config);
    const HttpResult first = http(server->port(), "POST", "/v1/jobs", body);
    ASSERT_EQ(first.status, 202) << first.body;
    id = static_cast<std::uint64_t>(
        JsonValue::parse(first.body).at("id").as_number());
    ASSERT_EQ(wait_state(server->port(), id, {"done", "failed"}), "done");

    // Resubmission (e.g. after a dropped connection) dedupes to the
    // existing job -- 200, not 202, and no second execution.
    const HttpResult dup = http(server->port(), "POST", "/v1/jobs", body);
    EXPECT_EQ(dup.status, 200) << dup.body;
    const JsonValue doc = JsonValue::parse(dup.body);
    EXPECT_EQ(doc.at("id").as_number(), static_cast<double>(id));
    EXPECT_TRUE(doc.at("deduplicated").as_bool());
    const JsonValue stats =
        JsonValue::parse(http(server->port(), "GET", "/v1/stats").body);
    EXPECT_EQ(stats.at("jobs").at("submitted").as_number(), 1.0);
  }

  // The key survives the restart through the ledger: resubmitting against
  // the recovered daemon still returns the original job.
  const auto server = start_server(config);
  const HttpResult dup = http(server->port(), "POST", "/v1/jobs", body);
  EXPECT_EQ(dup.status, 200) << dup.body;
  EXPECT_EQ(JsonValue::parse(dup.body).at("id").as_number(),
            static_cast<double>(id));

  // Malformed idempotency keys are rejected up front.
  const HttpResult bad = http(
      server->port(), "POST", "/v1/jobs",
      R"({"config":{"horizon":500},"idempotency_key":""})");
  EXPECT_EQ(bad.status, 400);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Serve, TtlExpiresAQueuedJobWithA409Result) {
  ServerConfig config;
  config.max_inflight = 1;
  const auto server = start_server(config);

  // Pin the lone executor, then queue a job that may only wait 100 ms.
  const std::uint64_t running = submit(server->port(), kLongRun);
  ASSERT_EQ(wait_state(server->port(), running, {"running"}), "running");
  const HttpResult queued = http(
      server->port(), "POST", "/v1/jobs",
      std::string(R"({"config":)") + kLongRun + R"(,"ttl_ms":100})");
  ASSERT_EQ(queued.status, 202) << queued.body;
  const auto id = static_cast<std::uint64_t>(
      JsonValue::parse(queued.body).at("id").as_number());

  // Status polling observes the expiry (reads enforce TTLs lazily even
  // while every executor is busy).
  EXPECT_EQ(wait_state(server->port(), id, {"expired"}), "expired");
  const JsonValue status = job_status(server->port(), id);
  EXPECT_NE(status.at("error").as_string().find("ttl_ms"),
            std::string::npos);
  const HttpResult result = http(
      server->port(), "GET", "/v1/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(result.status, 409);
  EXPECT_NE(result.body.find("expired"), std::string::npos);
  const JsonValue stats =
      JsonValue::parse(http(server->port(), "GET", "/v1/stats").body);
  EXPECT_EQ(stats.at("jobs").at("expired").as_number(), 1.0);

  // A ttl_ms that is not a positive integer is a 400.
  EXPECT_EQ(http(server->port(), "POST", "/v1/jobs",
                 R"({"config":{"horizon":500},"ttl_ms":0})")
                .status,
            400);

  EXPECT_EQ(http(server->port(), "POST",
                 "/v1/jobs/" + std::to_string(running) + "/cancel")
                .status,
            200);
  (void)wait_state(server->port(), running, {"cancelled", "failed"});
}

TEST(Serve, SampledModeServesCliIdenticalBytes) {
  const auto server = start_server();
  const std::uint64_t id = submit(
      server->port(),
      R"({"mode":"sampled","benchmarks":"gcc,gzip","warmup":0,)"
      R"("horizon":30000,"seed":2,"region":10000,"detail_warmup":10000})");
  ASSERT_EQ(wait_state(server->port(), id, {"done", "failed"}), "done");
  const std::string served =
      http(server->port(), "GET", "/v1/jobs/" + std::to_string(id) + "/result")
          .body;
  const std::string offline = offline_sampled_json(
      make_kv({{"mode", "sampled"},
               {"benchmarks", "gcc,gzip"},
               {"warmup", "0"},
               {"horizon", "30000"},
               {"seed", "2"},
               {"region", "10000"},
               {"detail_warmup", "10000"}}));
  EXPECT_EQ(served, offline)
      << "served bytes must match msim_cli --sampled-json exactly";

  // Sampled-mode knob combinations the engine rejects surface as 400s at
  // submission time, not as failed jobs.
  const HttpResult bad = http(
      server->port(), "POST", "/v1/jobs",
      R"({"config":{"mode":"sampled","sweep":2,"horizon":30000}})");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("sampled"), std::string::npos);
  EXPECT_EQ(http(server->port(), "POST", "/v1/jobs",
                 R"({"config":{"mode":"bogus","horizon":500}})")
                .status,
            400);
}

TEST(Serve, ShutdownDrainsAndRejectsNewWork) {
  const auto server = start_server();
  const std::uint64_t id = submit(
      server->port(), R"({"benchmarks":"gcc","warmup":100,"horizon":500})");

  const HttpResult shutdown = http(server->port(), "POST", "/v1/shutdown");
  EXPECT_EQ(shutdown.status, 200);
  EXPECT_EQ(shutdown.body, "{\"draining\":true}\n");

  // New submissions are refused while draining...
  submit(server->port(),
         R"({"benchmarks":"gcc","warmup":100,"horizon":500})",
         /*expected_status=*/503);

  // ...but the accepted job finishes (or was cancelled while queued) and
  // the drain converges.
  const std::string state =
      wait_state(server->port(), id, {"done", "cancelled", "failed"});
  EXPECT_TRUE(state == "done" || state == "cancelled") << state;
  for (int spins = 0; spins < 100 && !server->finished(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(server->finished());
}

}  // namespace
}  // namespace msim
