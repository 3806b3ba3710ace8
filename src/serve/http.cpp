#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <sstream>

#include "common/json.hpp"

namespace msim::serve {

namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

bool HttpRequest::wants_close() const {
  const auto it = headers.find("connection");
  return it != headers.end() && lowercase(it->second) == "close";
}

HttpRequestParser::HttpRequestParser(std::size_t max_head_bytes,
                                     std::size_t max_body_bytes)
    : max_head_bytes_(max_head_bytes), max_body_bytes_(max_body_bytes) {}

bool HttpRequestParser::consume(std::string_view bytes) {
  if (complete_) return true;
  buffer_.append(bytes);
  if (!head_done_) parse_head();
  if (head_done_ && buffer_.size() >= body_start_ + content_length_) {
    complete_ = true;
  }
  return complete_;
}

void HttpRequestParser::parse_head() {
  // The head ends at the first blank line; tolerate bare-LF clients.
  std::size_t head_end = buffer_.find("\r\n\r\n");
  std::size_t sep = 4;
  if (const std::size_t lf = buffer_.find("\n\n");
      lf != std::string::npos && (head_end == std::string::npos || lf < head_end)) {
    head_end = lf;
    sep = 2;
  }
  if (head_end == std::string::npos) {
    if (buffer_.size() > max_head_bytes_) {
      throw HttpError(413, "request head exceeds " +
                               std::to_string(max_head_bytes_) + " bytes");
    }
    return;
  }
  if (head_end > max_head_bytes_) {
    throw HttpError(413, "request head exceeds " +
                             std::to_string(max_head_bytes_) + " bytes");
  }

  request_ = HttpRequest{};
  std::istringstream head(buffer_.substr(0, head_end));
  std::string line;
  if (!std::getline(head, line)) {
    throw HttpError(400, "empty request head");
  }
  {
    std::istringstream rl{std::string(trim(line))};
    std::string version;
    if (!(rl >> request_.method >> request_.target >> version) ||
        version.rfind("HTTP/", 0) != 0) {
      throw HttpError(400,
                      "malformed request line (expected 'METHOD /path "
                      "HTTP/1.1'): '" +
                          std::string(trim(line)) + "'");
    }
  }
  while (std::getline(head, line)) {
    const std::string_view sv = trim(line);
    if (sv.empty()) continue;
    const std::size_t colon = sv.find(':');
    if (colon == std::string_view::npos) {
      throw HttpError(400, "malformed header line (expected 'Name: value'): '" +
                               std::string(sv) + "'");
    }
    request_.headers[lowercase(std::string(sv.substr(0, colon)))] =
        std::string(trim(sv.substr(colon + 1)));
  }

  if (request_.headers.contains("transfer_encoding") ||
      request_.headers.contains("transfer-encoding")) {
    throw HttpError(400,
                    "chunked request bodies are not supported; send "
                    "Content-Length");
  }
  content_length_ = 0;
  if (const auto it = request_.headers.find("content-length");
      it != request_.headers.end()) {
    const std::string& v = it->second;
    if (v.empty() ||
        !std::all_of(v.begin(), v.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      throw HttpError(400, "malformed Content-Length: '" + v + "'");
    }
    // All digits: the only failure left is a length beyond 64 bits, which
    // exceeds any limit.
    const std::errc ec =
        std::from_chars(v.data(), v.data() + v.size(), content_length_).ec;
    if (ec != std::errc{} || content_length_ > max_body_bytes_) {
      throw HttpError(413, "request body of " + v + " bytes exceeds the " +
                               std::to_string(max_body_bytes_) + "-byte limit");
    }
  }
  body_start_ = head_end + sep;
  head_done_ = true;
}

HttpRequest HttpRequestParser::take() {
  HttpRequest out = std::move(request_);
  out.body = buffer_.substr(body_start_, content_length_);
  buffer_.erase(0, body_start_ + content_length_);
  request_ = HttpRequest{};
  head_done_ = false;
  complete_ = false;
  body_start_ = 0;
  content_length_ = 0;
  // Re-parse any pipelined bytes already buffered.
  if (!buffer_.empty()) consume({});
  return out;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string format_response(int status, std::string_view content_type,
                            std::string_view body, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

std::string format_stream_head(int status, std::string_view content_type) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  return out;
}

std::string format_chunk(std::string_view data) {
  std::ostringstream os;
  os << std::hex << data.size() << "\r\n" << data << "\r\n";
  return os.str();
}

std::string error_body(int status, std::string_view message) {
  std::string out = "{\"error\":{\"status\":" + std::to_string(status) +
                    ",\"message\":" + json_escape(message) + "}}\n";
  return out;
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    // shutdown() ends the connection itself, not just this descriptor: a
    // copy inherited by a forked sweep worker must not keep the peer
    // waiting for EOF until that worker exits.
    (void)::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

IoStatus Socket::read_some(std::string& out, std::size_t max, int timeout_ms) {
  if (fd_ < 0) return IoStatus::kError;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return IoStatus::kTimeout;
  if (ready < 0) return errno == EINTR ? IoStatus::kTimeout : IoStatus::kError;
  std::string chunk(max, '\0');
  const ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
  if (n == 0) return IoStatus::kEof;
  if (n < 0) return errno == EINTR ? IoStatus::kTimeout : IoStatus::kError;
  out.append(chunk.data(), static_cast<std::size_t>(n));
  return IoStatus::kOk;
}

bool Socket::write_all(std::string_view data, int timeout_ms) {
  if (fd_ < 0) return false;
  while (!data.empty()) {
    pollfd pfd{fd_, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) return false;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("invalid IPv4 bind address: '" + host + "'");
  }
  return addr;
}

}  // namespace

Listener::Listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  socket_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("cannot bind " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    throw std::runtime_error(std::string("listen(): ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw std::runtime_error(std::string("getsockname(): ") +
                             std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
}

void Listener::shutdown() noexcept { (void)::shutdown(socket_.fd(), SHUT_RDWR); }

Socket Listener::accept(int timeout_ms) {
  if (!socket_.valid()) return Socket{};
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return Socket{};
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) return Socket{};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Socket Listener::connect(const std::string& host, std::uint16_t port,
                         int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket{};
  Socket sock(fd);
  sockaddr_in addr = make_addr(host, port);
  // A blocking connect to localhost either succeeds or fails fast; the
  // timeout parameter exists for interface symmetry with accept().
  (void)timeout_ms;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Socket{};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace msim::serve
