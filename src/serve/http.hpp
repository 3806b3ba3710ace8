// Minimal HTTP/1.1 framing for the msim_serve experiment daemon.
//
// This is deliberately a small subset of HTTP, not a web server: enough for
// `curl` and the load generator to speak to the daemon.  Requests are a
// request line, headers, and an optional Content-Length body; responses are
// either a fixed body or a chunked stream (the progress-event endpoint).
// The incremental HttpRequestParser never trusts the peer: head and body
// sizes are capped, malformed framing throws HttpError(400) with an
// actionable message (served back verbatim as the 4xx body), and oversized
// payloads throw HttpError(413) before the daemon buffers them.
//
// Socket/Listener wrap POSIX TCP sockets with poll-based timeouts so a slow
// or stalled client can never pin a session thread (docs/SERVICE.md,
// "Slow clients").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace msim::serve {

/// A request the daemon refuses, carrying the HTTP status to serve.  The
/// what() text becomes the JSON error body.
class HttpError : public std::runtime_error {
 public:
  HttpError(int status, const std::string& message)
      : std::runtime_error(message), status_(status) {}

  [[nodiscard]] int status() const noexcept { return status_; }

 private:
  int status_;
};

/// One parsed request.  Header names are lowercased; the target keeps its
/// raw spelling (routing strips any query string).
struct HttpRequest {
  std::string method;
  std::string target;
  std::map<std::string, std::string> headers;
  std::string body;

  /// True when the client asked to drop the connection after the response.
  [[nodiscard]] bool wants_close() const;
};

/// Incremental request parser for one connection.  Feed bytes as they
/// arrive; once complete() is true, take() yields the request and the
/// parser is ready for the next one (leftover pipelined bytes are kept).
class HttpRequestParser {
 public:
  explicit HttpRequestParser(std::size_t max_head_bytes = 16 * 1024,
                             std::size_t max_body_bytes = 1u << 20);

  /// Appends bytes and parses as far as possible.  Returns complete().
  /// Throws HttpError(400) on malformed framing and HttpError(413) when
  /// the head or the declared body exceeds its cap.
  bool consume(std::string_view bytes);

  /// A full request is buffered and take() may be called.
  [[nodiscard]] bool complete() const noexcept { return complete_; }

  /// No bytes of a next request have arrived (an idle keep-alive
  /// connection can be dropped without an error response).
  [[nodiscard]] bool idle() const noexcept {
    return buffer_.empty() && !complete_;
  }

  /// Extracts the parsed request and re-arms for the next one.
  [[nodiscard]] HttpRequest take();

 private:
  void parse_head();

  std::size_t max_head_bytes_;
  std::size_t max_body_bytes_;
  std::string buffer_;
  HttpRequest request_;
  bool head_done_ = false;
  bool complete_ = false;
  std::size_t body_start_ = 0;
  std::size_t content_length_ = 0;
};

/// Canonical reason phrase for the status codes the daemon serves.
[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// A full fixed-length response: status line, Content-Type/-Length and
/// Connection headers, blank line, body.
[[nodiscard]] std::string format_response(int status,
                                          std::string_view content_type,
                                          std::string_view body,
                                          bool keep_alive);

/// The head of a chunked streaming response (Transfer-Encoding: chunked,
/// Connection: close); follow with format_chunk() frames and end with
/// kLastChunk.
[[nodiscard]] std::string format_stream_head(int status,
                                             std::string_view content_type);

/// One chunked-transfer frame around `data`.
[[nodiscard]] std::string format_chunk(std::string_view data);

/// The terminating zero-length chunk of a stream.
inline constexpr std::string_view kLastChunk = "0\r\n\r\n";

/// The JSON error body served with a 4xx/5xx status:
/// {"error":{"status":N,"message":"..."}}.
[[nodiscard]] std::string error_body(int status, std::string_view message);

/// Outcome of one socket read attempt.
enum class IoStatus : std::uint8_t { kOk, kEof, kTimeout, kError };

/// RAII TCP socket with poll-bounded blocking I/O.  Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Appends up to `max` bytes to `out`, waiting at most `timeout_ms`.
  IoStatus read_some(std::string& out, std::size_t max, int timeout_ms);

  /// Writes all of `data`, waiting at most `timeout_ms` per poll round;
  /// false on timeout, peer reset, or error.
  bool write_all(std::string_view data, int timeout_ms);

 private:
  int fd_ = -1;
};

/// Listening TCP socket.  Construction binds and listens; port 0 picks an
/// ephemeral port (read it back with port()).
class Listener {
 public:
  /// Throws std::runtime_error with the errno text when the address cannot
  /// be bound (daemon exit code 2).
  Listener(const std::string& host, std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection, waiting at most `timeout_ms`; an invalid
  /// Socket on timeout or when the listener was closed.
  [[nodiscard]] Socket accept(int timeout_ms);

  /// Wakes a thread blocked in accept(), which then returns an invalid
  /// Socket, but keeps the descriptor: close() once that thread is joined.
  void shutdown() noexcept;

  void close() noexcept { socket_.close(); }

  /// Dials the listener's own address (tests and the load generator).
  [[nodiscard]] static Socket connect(const std::string& host,
                                      std::uint16_t port, int timeout_ms);

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

}  // namespace msim::serve
