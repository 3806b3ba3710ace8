// msim_serve: the sweep-as-a-service experiment daemon.  Accepts
// simulation jobs as JSON over a minimal HTTP/1.1 API and serves results
// byte-identical to the offline msim_cli engine (docs/SERVICE.md is the
// wire reference; docs/ARCHITECTURE.md shows where the daemon sits in the
// stack).
//
//   ./msim_serve --port 8080 --max-inflight 4 --journal-dir /tmp/jobs
//   curl -s localhost:8080/healthz
//   curl -s -X POST localhost:8080/v1/jobs
//        -d '{"config":{"sweep":2,"horizon":20000}}'
//   curl -s localhost:8080/v1/jobs/1/result > sweep.json
//
// Knobs come from sim::serve_known_keys() (single source of truth shared
// with the --help text); the simulation knobs accepted inside a job's
// "config" are exactly sim::serve_request_keys().
//
// Exit codes: 0 clean shutdown (POST /v1/shutdown); 2 bad usage or bind
// failure; 128+N killed by signal N after a graceful drain (SIGINT=130,
// SIGTERM=143; a second signal cancels running jobs instead of waiting).
#include <chrono>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "persist/signal.hpp"
#include "serve/server.hpp"
#include "sim/cli_spec.hpp"
#include "sim/config_build.hpp"

int main(int argc, char** argv) {
  using namespace msim;
  // First signal: graceful drain (finish running jobs, journals flushed).
  // Second signal: cancel running jobs too.  Exit 128+N either way.
  const persist::SignalGuard signals;
  try {
    const std::vector<std::string> args =
        sim::normalize_cli_args(argc, argv, sim::serve_value_flags());
    const KvConfig cli = KvConfig::parse_strings(args);
    if (cli.get_bool("help", false)) {
      std::cout << sim::serve_usage();
      return 0;
    }
    if (const auto unknown = cli.unknown_keys(sim::serve_known_keys());
        !unknown.empty()) {
      std::string msg = "unknown option(s):";
      for (const std::string& k : unknown) msg += " " + k;
      msg += " (run msim_serve --help, or see docs/SERVICE.md)";
      throw std::invalid_argument(msg);
    }

    serve::ServerConfig config;
    config.host = cli.get_string("host", config.host);
    config.port = cli.get_uint<std::uint16_t>("port", 0);
    config.queue_depth = cli.get_uint("queue_depth", config.queue_depth);
    config.max_inflight = cli.get_uint<unsigned>("max_inflight", 2);
    if (config.max_inflight == 0) {
      throw std::invalid_argument(
          "max_inflight=0 would never run a job; use 1 or more executors");
    }
    config.journal_dir = cli.get_string("journal_dir", "");
    if (!config.journal_dir.empty()) {
      // Fail at startup, not on the first sweep job's journal write.
      std::error_code ec;
      std::filesystem::create_directories(config.journal_dir, ec);
      if (ec) {
        throw std::invalid_argument("cannot create journal_dir '" +
                                    config.journal_dir + "': " + ec.message());
      }
    }
    config.io_timeout_ms = cli.get_uint<int>("io_timeout_ms", 10'000);

    serve::ExperimentServer server(config);
    server.start();
    std::cout << "listening on " << config.host << ":" << server.port()
              << "\n";
    std::cout << "msim_serve: queue_depth=" << config.queue_depth
              << " max_inflight=" << config.max_inflight << " journal_dir="
              << (config.journal_dir.empty() ? "(off)" : config.journal_dir)
              << "\n"
              << std::flush;

    int signum = 0;
    while (true) {
      if (const int s = persist::signal_pending(); s != 0) {
        persist::clear_pending_signal();
        if (signum == 0) {
          signum = s;
          std::cerr << "signal " << s
                    << ": draining (running jobs finish; signal again to "
                       "cancel them)\n";
          server.request_shutdown(/*cancel_running=*/false);
        } else {
          std::cerr << "second signal: cancelling running jobs\n";
          server.request_shutdown(/*cancel_running=*/true);
        }
      }
      if (server.shutdown_requested() && server.finished()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    std::cout << "drained; exiting\n";
    return signum == 0 ? 0 : 128 + signum;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
