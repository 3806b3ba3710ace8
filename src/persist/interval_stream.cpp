#include "persist/interval_stream.hpp"

#include "common/archive.hpp"  // PersistError

namespace msim::persist {

namespace {

/// What the .part starts with: a fresh header, or on resume the
/// interrupted run's header plus its first `already_streamed` complete
/// records.  Anything past those was captured after the checkpoint being
/// resumed and will be re-captured byte-identically; a torn final line is
/// dropped the same way.
std::string initial_part(const std::string& part, const std::string& header,
                         std::uint64_t already_streamed) {
  if (already_streamed == 0) return header + "\n";
  std::uint64_t records = 0;
  const auto kept = AppendLog::replay(
      part,
      [&](std::string_view line) {
        if (line != header) {
          throw PersistError(
              "interval stream: '" + part +
              "' has a different header than this run would write "
              "(interval= or thread count changed?); it cannot be resumed");
        }
      },
      [&](std::string_view) {
        if (records == already_streamed) return false;
        ++records;
        return true;
      });
  if (!kept) {
    throw PersistError(
        "interval stream: resume expects the interrupted run's '" + part +
        "' (" + std::to_string(already_streamed) +
        " record(s) already streamed) but it is missing or unreadable; "
        "rerun without --resume to regenerate the stream from scratch");
  }
  if (records < already_streamed) {
    throw PersistError(
        "interval stream: '" + part + "' holds " + std::to_string(records) +
        " complete record(s) but the checkpoint says " +
        std::to_string(already_streamed) +
        " were streamed; the stream and checkpoint do not belong together");
  }
  return *kept;
}

}  // namespace

IntervalStreamWriter::IntervalStreamWriter(const std::string& path,
                                           const obs::IntervalConfig& config,
                                           unsigned thread_count,
                                           std::uint64_t already_streamed)
    : path_(path),
      log_(path + ".part",
           initial_part(path + ".part",
                        obs::format_interval_header(config, thread_count),
                        already_streamed)) {}

void IntervalStreamWriter::append(const obs::IntervalRecord& record) {
  log_.append(obs::format_interval_record(record) + "\n");
  if (++written_ % kFsyncBatch == 0) log_.sync();
}

void IntervalStreamWriter::finalize() { log_.seal(path_); }

}  // namespace msim::persist
