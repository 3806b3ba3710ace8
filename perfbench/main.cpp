// msim_perfbench: one benchmark run of one workload.
//
//   msim_perfbench --workload run4t|sweep4t|serve4c --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR] [--pins FILE]
//
// Prints a provenance line and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  The full report
// (provenance, metrics, sample counts, digests, errors) is also written to
// DIR/report-<workload>-s<seed>-t<trace>.json, and a traced run writes its
// spans as a Chrome trace to DIR/trace-<workload>-s<seed>.json.
// Exit codes: 0 measured (correct or not), 2 bad usage or setup failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "persist/atomic_file.hpp"

#ifndef MSIM_BUILD_TYPE
#define MSIM_BUILD_TYPE "unknown"
#endif
#ifndef MSIM_COMPILER
#define MSIM_COMPILER "unknown"
#endif

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return hex64(h);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image alone.  getrusage's
  // ru_maxrss would also carry the parent's peak across fork + exec.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

DigestCheck::DigestCheck(const Context& ctx, std::string workload)
    : workload_(std::move(workload)) {
  if (const auto w = ctx.pins.find(workload_); w != ctx.pins.end()) {
    if (const auto s = w->second.find(ctx.seed); s != w->second.end()) {
      expected_ = s->second;
    }
  }
  if (expected_.empty() && ctx.seed == kDefaultSeed) {
    throw std::runtime_error("pinned.json has no digest for " + workload_ +
                             " at the default seed");
  }
}

void DigestCheck::check(const std::string& digest, Report& report,
                        std::uint64_t ops) {
  report.digests[workload_] = digest;
  if (expected_.empty()) {
    expected_ = digest;  // unpinned seed: later repeats must agree
    return;
  }
  if (digest != expected_) {
    report.fail(workload_ + ": output digest " + digest + " != expected " +
                    expected_,
                ops);
  }
}

namespace {

/// A fixed dependent integer loop; its time tracks the host's single-core
/// speed, so a change of runner shows here before it shows anywhere else.
double calibration_once_ms() {
  const Clock::time_point start = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return seconds_since(start) * 1e3;
}

double calibration_ms() {
  return median({calibration_once_ms(), calibration_once_ms(),
                 calibration_once_ms()});
}

Pins load_pins(const std::string& path) {
  Pins pins;
  const msim::JsonValue doc = msim::JsonValue::parse(msim::persist::read_file(path));
  for (const auto& [workload, seeds] : doc.at("digests").as_object()) {
    for (const auto& [seed, digest] : seeds.as_object()) {
      pins[workload][std::stoull(seed)] = digest.as_string();
    }
  }
  return pins;
}

struct Args {
  Context ctx;
  std::string pins_path = "perfbench/pinned.json";
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.ctx.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.ctx.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.ctx.traced = value == "1";
    } else if (flag == "--work-dir") {
      a.ctx.work_dir = value;
    } else if (flag == "--pins") {
      a.pins_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  static const char* const kWorkloads[] = {"run4t", "sweep4t", "serve4c"};
  if (!have_workload ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), a.ctx.workload) ==
          std::end(kWorkloads)) {
    throw std::invalid_argument("--workload must be one of run4t sweep4t serve4c");
  }
  if (!(a.ctx.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void write_metrics(msim::JsonWriter& w, const Report& report) {
  w.begin_object();
  for (const auto& [name, m] : report.metrics) {
    w.key(name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

int run(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  Context& ctx = args.ctx;
  std::filesystem::create_directories(ctx.work_dir);
  ctx.pins = load_pins(args.pins_path);

  msim::obs::TimerRegistry spans;
  if (ctx.traced) {
    spans.enable_spans();
    ctx.spans = &spans;
  }

  Report report;
  const double calib_ms = calibration_ms();
  const unsigned nproc = std::thread::hardware_concurrency();
  if (ctx.traced) {
    run_layer_suite(ctx, report);
    report.metric("host.calib_ms", calib_ms, "ms");
  } else {
    run_workload(ctx, report);
  }
  if (report.attempted == 0) {
    throw std::runtime_error("no op was attempted");
  }
  const bool correct = report.failed == 0 && report.errors.empty();

  // Provenance and details: the report file and one stdout line.
  const std::string tag = ctx.workload + "-s" + std::to_string(ctx.seed) +
                          "-t" + (ctx.traced ? "1" : "0");
  std::ostringstream full;
  {
    msim::JsonWriter w(full, 2);
    w.begin_object();
    w.kv("schema", "msim.perfbench.v1");
    w.kv("workload", ctx.workload);
    w.kv("seed", ctx.seed);
    w.kv("seconds", ctx.seconds);
    w.kv("trace", ctx.traced);
    w.kv("build_type", MSIM_BUILD_TYPE);
    w.kv("compiler", MSIM_COMPILER);
    w.kv("nproc", std::uint64_t{nproc});
    w.kv("host_calib_ms", calib_ms);
    w.kv("correct", correct);
    w.kv("attempted", report.attempted);
    w.kv("failed", report.failed);
    w.key("metrics");
    write_metrics(w, report);
    w.key("details");
    w.begin_object();
    for (const auto& [name, v] : report.details) w.kv(name, v);
    w.end_object();
    w.key("op_seconds");
    w.begin_array();
    for (const double t : report.op_seconds) w.value(t);
    w.end_array();
    w.key("digests");
    w.begin_object();
    for (const auto& [name, v] : report.digests) w.kv(name, v);
    w.end_object();
    w.key("errors");
    w.begin_array();
    for (const std::string& e : report.errors) w.value(e);
    w.end_array();
    w.end_object();
    full << '\n';
  }
  const std::string report_path = ctx.work_dir + "/report-" + tag + ".json";
  msim::persist::write_text_atomic(report_path, full.str());
  if (ctx.traced) {
    std::ofstream trace_out(ctx.work_dir + "/trace-" + ctx.workload + "-s" +
                            std::to_string(ctx.seed) + ".json");
    msim::obs::write_chrome_trace(trace_out, spans);
  }
  for (const std::string& e : report.errors) std::cerr << "check failed: " << e << "\n";

  std::cout << "# " << tag << " seed=" << ctx.seed
            << " build_type=" << MSIM_BUILD_TYPE << " compiler=\"" << MSIM_COMPILER
            << "\" nproc=" << nproc << " host.calib_ms=" << calib_ms
            << " report=" << report_path << "\n";
  std::ostringstream line;
  {
    msim::JsonWriter w(line, 0);
    w.begin_object();
    w.kv("correct", correct);
    w.kv("attempted", report.attempted);
    w.kv("failed", report.failed);
    w.key("metrics");
    write_metrics(w, report);
    w.end_object();
  }
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "msim_perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
