// Streaming JSONL export of interval telemetry (schema msim.intervals.v1).
//
// A persist::AppendLog (docs/CHECKPOINT.md, "Append-only logs") at
// `<path>.part`: the header line first, then one compact JSON line per
// obs::IntervalRecord, fsynced in batches of kFsyncBatch; a clean
// finalize() seals it onto `path`.  An interrupted run leaves the .part
// behind; the resuming run's constructor validates its header and keeps
// exactly the checkpoint's stream cursor of records
// (obs::IntervalEngine::captured_total), dropping any the killed run
// captured after its last checkpoint, so the resumed stream's final bytes
// match an uninterrupted run's exactly.
#pragma once

#include <cstdint>
#include <string>

#include "obs/interval.hpp"
#include "persist/atomic_file.hpp"

namespace msim::persist {

class IntervalStreamWriter {
 public:
  /// `already_streamed` = 0 starts a fresh stream; > 0 resumes the .part
  /// left by an interrupted run (PersistError when it is missing, has a
  /// different header, or holds fewer complete records than the cursor).
  IntervalStreamWriter(const std::string& path,
                       const obs::IntervalConfig& config,
                       unsigned thread_count, std::uint64_t already_streamed);

  void append(const obs::IntervalRecord& record);

  /// Seals the .part onto `path`.  Call on clean completion only; after
  /// finalize() the writer is closed.  An abandoned writer (interrupt,
  /// abort) leaves the .part behind for a resume to continue from.
  void finalize();

  /// Records appended by this writer (excludes resumed-over lines).
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

  /// Appends are fsynced every this many lines (and on finalize).
  static constexpr std::uint64_t kFsyncBatch = 64;

 private:
  std::string path_;
  AppendLog log_;
  std::uint64_t written_ = 0;
};

}  // namespace msim::persist
