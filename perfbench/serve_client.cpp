// Client side of serve4c: real TCP requests against the daemon, one
// connection per request.  A job is followed on its chunked
// /v1/jobs/N/events stream until the daemon closes it (the job reached a
// terminal state), never by polling its status.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "serve/http.hpp"

namespace perfbench {

namespace {

using msim::serve::IoStatus;
using msim::serve::Listener;
using msim::serve::Socket;

constexpr int kIoTimeoutMs = 60'000;
constexpr std::size_t kReadSlice = 16 * 1024;
constexpr std::size_t kMaxResponse = 64u << 20;

struct Reply {
  int status = 0;
  std::string body;
};

Socket send_request(std::uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body) {
  Socket sock = Listener::connect("127.0.0.1", port, kIoTimeoutMs);
  if (!sock.valid()) return sock;
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "\r\n" + body;
  if (!sock.write_all(req, kIoTimeoutMs)) sock.close();
  return sock;
}

/// One fixed-length request/response; the daemon closes after replying.
Reply http(std::uint16_t port, const std::string& method, const std::string& target,
           const std::string& body = "") {
  Reply out;
  Socket sock = send_request(port, method, target, body);
  if (!sock.valid()) return out;
  std::string raw;
  for (;;) {
    const IoStatus st = sock.read_some(raw, kReadSlice, kIoTimeoutMs);
    if (st == IoStatus::kEof) break;
    if (st != IoStatus::kOk || raw.size() > kMaxResponse) return out;
  }
  const std::size_t split = raw.find("\r\n\r\n");
  if (raw.size() < 12 || split == std::string::npos) return out;
  out.status = std::atoi(raw.substr(9, 3).c_str());
  out.body = raw.substr(split + 4);
  return out;
}

/// Follows a chunked event stream to its end.  Records when the first and
/// the last event line arrived; false when the stream broke off.
bool follow_events(std::uint16_t port, const std::string& id,
                   std::optional<Clock::time_point>& first,
                   std::optional<Clock::time_point>& last) {
  Socket sock = send_request(port, "GET", "/v1/jobs/" + id + "/events", "");
  if (!sock.valid()) return false;
  std::string raw;
  std::size_t pos = std::string::npos;  // start of the next chunk
  for (;;) {
    const IoStatus st = sock.read_some(raw, kReadSlice, kIoTimeoutMs);
    if (st != IoStatus::kOk && st != IoStatus::kEof) return false;
    if (pos == std::string::npos) {
      const std::size_t head = raw.find("\r\n\r\n");
      if (head != std::string::npos) {
        if (raw.compare(9, 3, "200") != 0) return false;
        pos = head + 4;
      }
    }
    // Consume every complete chunk: "<hex size>\r\n<data>\r\n".
    while (pos != std::string::npos) {
      const std::size_t eol = raw.find("\r\n", pos);
      if (eol == std::string::npos) break;
      const std::size_t size = std::stoul(raw.substr(pos, eol - pos), nullptr, 16);
      if (raw.size() < eol + 2 + size + 2) break;
      if (size == 0) return true;  // the terminating chunk: job finished
      const Clock::time_point now = Clock::now();
      if (!first) first = now;
      last = now;
      pos = eol + 2 + size + 2;
    }
    if (st == IoStatus::kEof) return false;
  }
}

}  // namespace

JobTiming serve_job(std::uint16_t port, const std::string& config_json,
                    const std::string& reference, msim::obs::TimerRegistry* spans) {
  JobTiming t;
  const Clock::time_point start = Clock::now();
  const Reply submitted = http(port, "POST", "/v1/jobs", config_json);
  const Clock::time_point accepted = Clock::now();
  if (submitted.status != 202) {
    t.error = "submit returned HTTP " + std::to_string(submitted.status);
    return t;
  }
  const std::string id = std::to_string(static_cast<std::uint64_t>(
      msim::JsonValue::parse(submitted.body).at("id").as_number()));

  std::optional<Clock::time_point> first;
  std::optional<Clock::time_point> last;
  if (!follow_events(port, id, first, last)) {
    t.error = "event stream of job " + id + " broke off";
    return t;
  }
  const Clock::time_point result_start = Clock::now();
  const Reply result = http(port, "GET", "/v1/jobs/" + id + "/result");
  const Clock::time_point end = Clock::now();
  if (result.status != 200) {
    t.error = "result of job " + id + " returned HTTP " + std::to_string(result.status);
    return t;
  }
  if (result.body != reference) {
    t.error = "result of job " + id + " differs from the offline reference";
    return t;
  }
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  t.ok = true;
  t.submit_s = secs(start, accepted);
  t.queue_wait_s = first ? secs(accepted, *first) : 0.0;
  t.run_s = first ? secs(*first, *last) : 0.0;
  t.result_s = secs(result_start, end);
  t.total_s = secs(start, end);
  t.result_bytes = result.body.size();
  if (spans) {
    spans->record_span("serve.submit", start, accepted);
    if (first) {
      spans->record_span("serve.queue_wait", accepted, *first);
      spans->record_span("serve.run", *first, *last);
    }
    spans->record_span("serve.result", result_start, end);
  }
  return t;
}

LoadResult closed_loop(std::uint16_t port, unsigned clients, double seconds,
                       const std::string& config_json, const std::string& reference,
                       msim::obs::TimerRegistry* spans) {
  LoadResult out;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (seconds_since(start) < seconds) {
        JobTiming t = serve_job(port, config_json, reference, spans);
        t.done_at_s = seconds_since(start);
        const std::lock_guard<std::mutex> lock(mu);
        out.jobs.push_back(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.seconds = seconds_since(start);
  return out;
}

}  // namespace perfbench
