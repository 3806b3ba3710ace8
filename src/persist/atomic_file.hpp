// Crash-safe file replacement: write-temp + fsync + atomic rename, and the
// one append-only log built on it.
//
// Every artefact the simulator leaves on disk (stats JSON, sweep JSON,
// diagnostic bundles, checkpoints) goes through here, so a crash or signal
// mid-write can never leave a truncated, unparseable file under the final
// name: readers either see the complete old content or the complete new
// content.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace msim::persist {

/// Atomically replaces `path` with `bytes`: writes `path` + ".tmp.<pid>",
/// fsyncs it, renames it over `path`, then fsyncs the directory so the
/// rename itself survives a power cut.  Throws std::runtime_error with the
/// errno text on any failure (the temp file is unlinked best-effort).
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes);

/// write_file_atomic for text content.
void write_text_atomic(const std::string& path, std::string_view text);

/// Reads the whole file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// The write-ahead JSONL log behind the sweep journal, the interval stream
/// and the job ledger (docs/CHECKPOINT.md, "Append-only logs"): a header
/// line, then whole-line records.  A crash mid-append can only tear the
/// final line, and replay stops at the first line that does not decode, so
/// everything before it is kept.  Clients own only their format: header
/// fields, record encoding and fsync cadence.  Not thread-safe.
class AppendLog {
 public:
  /// Hands the first non-empty line of `path` to `header`, which throws to
  /// refuse the file, then each later complete line to `record` until it
  /// returns false.  Returns the bytes through the last accepted line (the
  /// prefix a reopen keeps), or nullopt when `path` cannot be read.  Throws
  /// PersistError when the file has no complete header line.
  [[nodiscard]] static std::optional<std::string> replay(
      const std::string& path,
      const std::function<void(std::string_view)>& header,
      const std::function<bool(std::string_view)>& record);

  /// Atomically replaces `path` with `content` (a fresh header, a replayed
  /// prefix or compacted state) and opens it for appending.
  AppendLog(std::string path, std::string_view content);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Writes one whole '\n'-terminated line; durable after the next sync().
  void append(std::string_view line);

  /// fsyncs everything appended so far.
  void sync();

  /// sync(), close, then rename the log onto `final_path` as durably as
  /// write_file_atomic does.  The log takes no appends afterwards.
  void seal(const std::string& final_path);

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace msim::persist
