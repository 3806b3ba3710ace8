// Load generator for the msim_serve experiment daemon (docs/SERVICE.md).
//
// Starts an in-process ExperimentServer, fans `clients` concurrent client
// threads out against it over real TCP sockets -- each submits a small
// sweep job, polls it to completion, and fetches the result -- and reports
// submit-to-result latency percentiles plus throughput.  Every fetched
// result is compared against the offline engine's bytes for the same
// config, so the run doubles as a byte-identity check under load.
//
//   ./bench_serve                         # 100 concurrent sweep clients
//   ./bench_serve clients=32 quick=1
//   ./bench_serve json=bench_serve.json   # machine-readable summary
//
// With restart=1 the load runs against a --journal-dir-backed daemon,
// which is then torn down and restarted: the scenario times the recovery
// (ledger replay and compaction, plus a check that each done job's result
// file opens -- results are read per fetch, so no result reload is timed)
// and byte-checks a re-served result, so regressions in startup recovery
// show up in the latency JSON.
//
// Knobs: clients=N requests=N (per client) sweep=2|3|4 iq=LIST warmup=N
// horizon=N max_inflight=N queue_depth=N restart=1 quick=1 json=PATH.
// Exit codes follow the bench protocol (bench_common.hpp): 0 ok, 2 bad
// usage; any failed or non-identical request makes the bench exit 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "sim/config_build.hpp"

namespace {

using msim::serve::Listener;
using msim::serve::Socket;

struct Options {
  unsigned clients = 100;
  unsigned requests = 1;  ///< jobs submitted per client, sequentially
  unsigned sweep = 2;
  std::string iq = "32";
  std::uint64_t warmup = 200;
  std::uint64_t horizon = 800;
  unsigned max_inflight = 0;  ///< 0 = hardware concurrency
  std::size_t queue_depth = 0;  ///< 0 = clients * requests (never 429)
  bool restart = false;  ///< measure ledger-replay recovery after the load
  std::string json_path;
};

Options parse(int argc, char** argv) {
  const msim::KvConfig cli =
      msim::KvConfig::parse({argv + 1, static_cast<std::size_t>(argc - 1)});
  static constexpr std::string_view kKnown[] = {
      "clients", "requests",     "sweep",       "iq",      "warmup",
      "horizon", "max_inflight", "queue_depth", "restart", "json",
      "quick"};
  if (const auto unknown = cli.unknown_keys(kKnown); !unknown.empty()) {
    std::string msg = "unknown option(s):";
    for (const std::string& k : unknown) msg += " " + k;
    msg += " (known: clients requests sweep iq warmup horizon max_inflight "
           "queue_depth restart json quick; see EXPERIMENTS.md)";
    throw std::invalid_argument(msg);
  }
  Options opts;
  opts.clients = cli.get_uint<unsigned>("clients", 100);
  opts.requests = cli.get_uint<unsigned>("requests", 1);
  opts.sweep = cli.get_uint<unsigned>("sweep", 2);
  opts.iq = cli.get_string("iq", "32");
  opts.warmup = cli.get_uint("warmup", 200);
  opts.horizon = cli.get_uint("horizon", 800);
  opts.max_inflight = cli.get_uint<unsigned>("max_inflight", 0);
  opts.queue_depth = cli.get_uint("queue_depth", 0);
  opts.restart = cli.get_bool("restart", false);
  opts.json_path = cli.get_string("json", "");
  if (cli.get_bool("quick", false)) {
    opts.clients = std::max(1u, opts.clients / 4);
    opts.warmup /= 2;
    opts.horizon /= 2;
  }
  if (opts.clients == 0 || opts.requests == 0) {
    throw std::invalid_argument("clients= and requests= must be >= 1");
  }
  return opts;
}

/// One request/response over a fresh connection; reads to EOF.
struct Reply {
  int status = 0;
  std::string body;
};

Reply http(std::uint16_t port, const std::string& method,
           const std::string& target, const std::string& body = "") {
  Reply out;
  Socket sock = Listener::connect("127.0.0.1", port, 5000);
  if (!sock.valid()) return out;
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  if (!sock.write_all(req, 5000)) return out;
  std::string raw;
  while (sock.read_some(raw, 65536, 1000) != msim::serve::IoStatus::kEof) {
    if (raw.size() > (64u << 20)) break;  // runaway guard
  }
  if (raw.size() > 12) out.status = std::stoi(raw.substr(9, 3));
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = raw.substr(split + 4);
  return out;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1.0, std::max(0.0, p * n - 1.0)));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msim;
  return bench::guarded_main([&]() -> int {
    const Options opts = parse(argc, argv);

    std::ostringstream cfg;
    cfg << "{\"sweep\":" << opts.sweep << ",\"sched\":\"2op_block_ooo\","
        << "\"iq\":\"" << opts.iq << "\",\"warmup\":" << opts.warmup
        << ",\"horizon\":" << opts.horizon << "}";
    const std::string config_json = cfg.str();

    // The offline reference bytes every served result must equal.
    KvConfig kv;
    kv.set("sweep", std::to_string(opts.sweep));
    kv.set("sched", "2op_block_ooo");
    kv.set("iq", opts.iq);
    kv.set("warmup", std::to_string(opts.warmup));
    kv.set("horizon", std::to_string(opts.horizon));
    sim::BuiltRun built = sim::build_run_config(kv);
    sim::SweepRequest ref_req =
        sim::build_sweep_request(kv, built.config, opts.sweep, /*jobs=*/1);
    sim::BaselineCache ref_baselines(built.config);
    std::ostringstream ref_os;
    sim::write_sweep_json(ref_os, sim::run_sweep(ref_req, ref_baselines));
    const std::string reference = ref_os.str();

    serve::ServerConfig server_config;
    server_config.max_inflight =
        opts.max_inflight != 0 ? opts.max_inflight
                               : ThreadPool::default_parallelism();
    server_config.queue_depth =
        opts.queue_depth != 0
            ? opts.queue_depth
            : static_cast<std::size_t>(opts.clients) * opts.requests;
    if (opts.restart) {
      // restart=1: journal every job so the post-load restart has a real
      // ledger (one record chain + result file per request) to replay.
      server_config.journal_dir =
          (std::filesystem::temp_directory_path() /
           ("msim-bench-serve-" + std::to_string(::getpid())))
              .string();
      std::filesystem::remove_all(server_config.journal_dir);
      std::filesystem::create_directories(server_config.journal_dir);
    }
    auto server = std::make_unique<serve::ExperimentServer>(server_config);
    server->start();
    const std::uint16_t port = server->port();

    std::cout << "# clients=" << opts.clients << " requests=" << opts.requests
              << " sweep=" << opts.sweep << " iq=" << opts.iq
              << " warmup=" << opts.warmup << " horizon=" << opts.horizon
              << " max_inflight=" << server_config.max_inflight
              << " queue_depth=" << server_config.queue_depth
              << " restart=" << (opts.restart ? 1 : 0) << "\n";

    std::mutex mu;
    std::vector<double> latencies_ms;
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> mismatched{0};
    std::atomic<std::uint64_t> last_done_id{0};  ///< re-served after restart

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(opts.clients);
    for (unsigned c = 0; c < opts.clients; ++c) {
      clients.emplace_back([&] {
        for (unsigned r = 0; r < opts.requests; ++r) {
          const auto start = std::chrono::steady_clock::now();
          const Reply submitted = http(port, "POST", "/v1/jobs",
                                       "{\"config\":" + config_json + "}");
          if (submitted.status != 202) {
            failed.fetch_add(1);
            continue;
          }
          const std::string id =
              std::to_string(static_cast<std::uint64_t>(
                  JsonValue::parse(submitted.body).at("id").as_number()));
          std::string state = "queued";
          for (int spins = 0; spins < 6000; ++spins) {
            const Reply status = http(port, "GET", "/v1/jobs/" + id);
            if (status.status != 200) break;
            state = JsonValue::parse(status.body).at("state").as_string();
            if (state == "done" || state == "failed" || state == "cancelled")
              break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          if (state != "done") {
            failed.fetch_add(1);
            continue;
          }
          const Reply result =
              http(port, "GET", "/v1/jobs/" + id + "/result");
          if (result.status != 200) {
            failed.fetch_add(1);
            continue;
          }
          if (result.body != reference) mismatched.fetch_add(1);
          last_done_id.store(std::stoull(id));
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          const std::lock_guard<std::mutex> lock(mu);
          latencies_ms.push_back(ms);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    server->stop();

    // restart=1: tear the daemon down and time a fresh incarnation's
    // recovery -- ledger replay, result-file checks, queue rebuild -- then
    // byte-check one re-served result against the reference.
    double recovery_ms = 0.0;
    std::uint64_t recovered_jobs = 0;
    bool reserved_identical = true;
    if (opts.restart) {
      server.reset();  // only the --journal-dir ledger survives
      const auto recover_start = std::chrono::steady_clock::now();
      server = std::make_unique<serve::ExperimentServer>(server_config);
      server->start();
      recovery_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - recover_start)
                        .count();
      recovered_jobs = server->recovery().replayed;
      const std::uint64_t id = last_done_id.load();
      if (id != 0) {
        const Reply reserved = http(
            server->port(), "GET",
            "/v1/jobs/" + std::to_string(id) + "/result");
        reserved_identical =
            reserved.status == 200 && reserved.body == reference;
      }
      server->stop();
      server.reset();
      std::error_code ec;
      std::filesystem::remove_all(server_config.journal_dir, ec);
      std::cout << "restart: recovered " << recovered_jobs << " job(s) in "
                << recovery_ms << " ms, re-served result "
                << (reserved_identical ? "byte-identical" : "MISMATCHED")
                << "\n";
    }

    std::sort(latencies_ms.begin(), latencies_ms.end());
    const std::uint64_t total =
        std::uint64_t{opts.clients} * opts.requests;
    const std::uint64_t completed = latencies_ms.size();
    double mean = 0.0;
    for (const double ms : latencies_ms) mean += ms;
    if (completed != 0) mean /= static_cast<double>(completed);
    const double p50 = percentile(latencies_ms, 0.50);
    const double p95 = percentile(latencies_ms, 0.95);
    const double p99 = percentile(latencies_ms, 0.99);
    const double max_ms =
        latencies_ms.empty() ? 0.0 : latencies_ms.back();
    const double rps = wall_s > 0.0
                           ? static_cast<double>(completed) / wall_s
                           : 0.0;

    std::cout << "completed " << completed << "/" << total << " requests in "
              << wall_s << " s (" << rps << " req/s), " << failed.load()
              << " failed, " << mismatched.load() << " byte-mismatched\n";
    std::cout << "latency ms: p50=" << p50 << " p95=" << p95 << " p99=" << p99
              << " mean=" << mean << " max=" << max_ms << "\n";

    if (!opts.json_path.empty()) {
      std::ostringstream os;
      JsonWriter w(os, 2);
      w.begin_object();
      w.kv("schema", "msim.bench_serve.v1");
      w.kv("clients", std::uint64_t{opts.clients});
      w.kv("requests_per_client", std::uint64_t{opts.requests});
      w.kv("total_requests", total);
      w.kv("completed", completed);
      w.kv("failed", failed.load());
      w.kv("byte_mismatched", mismatched.load());
      w.kv("wall_seconds", wall_s);
      w.kv("throughput_rps", rps);
      w.key("latency_ms");
      w.begin_object();
      w.kv("p50", p50);
      w.kv("p95", p95);
      w.kv("p99", p99);
      w.kv("mean", mean);
      w.kv("max", max_ms);
      w.end_object();
      w.key("server");
      w.begin_object();
      w.kv("max_inflight", std::uint64_t{server_config.max_inflight});
      w.kv("queue_depth",
           static_cast<std::uint64_t>(server_config.queue_depth));
      w.end_object();
      if (opts.restart) {
        w.key("restart");
        w.begin_object();
        w.kv("recovery_ms", recovery_ms);
        w.kv("recovered_jobs", recovered_jobs);
        w.kv("reserved_identical", reserved_identical);
        w.end_object();
      }
      w.end_object();
      os << '\n';
      persist::write_text_atomic(opts.json_path, os.str());
      std::cout << "wrote " << opts.json_path << "\n";
    }
    return (failed.load() == 0 && mismatched.load() == 0 &&
            reserved_identical)
               ? 0
               : 1;
  });
}
