// Write-ahead journal for crash-recoverable sweeps.
//
// A persist::AppendLog (docs/CHECKPOINT.md, "Append-only logs"): the header
// carries the journal format version and the sweep-request fingerprint;
// each record is one completed sweep cell run as {"cell": key, "payload":
// hex}, appended and fsynced before the sweep moves on.  Replay stops at
// the first record that does not decode (a torn tail), and a resume keeps
// everything before it; the cells past it re-run.  The payload is an
// opaque hex-encoded persist::Archive blob -- the journal does not know
// what a MixResult is.
//
// A sweep's journal has exactly one writer, the process that called
// sim::run_sweep, on every execution backend: forked sweep workers hand
// their cells back over the supervisor's pipe instead of writing files.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "persist/atomic_file.hpp"

namespace msim::persist {

/// v2: the RunResult payload gained interval records + drop count.
/// v3: interval records carry a region_id (sampled mode, docs/SAMPLING.md).
/// v4: MixResult payloads gained the failure-diagnostic field.
inline constexpr std::uint32_t kJournalFormatVersion = 4;

class SweepJournal {
 public:
  /// Opens `path` for appending.  With `resume`, an existing file is
  /// validated (format version + fingerprint, PersistError on mismatch)
  /// and its completed entries are loaded; without it, any existing file
  /// is replaced by a fresh header (atomic).  A missing file starts fresh
  /// either way, so `resume` against a journal that never got written
  /// simply runs the whole sweep.
  SweepJournal(const std::string& path, std::uint64_t fingerprint, bool resume);

  /// The payload recorded for `key`, or nullptr.  Loaded entries only;
  /// lookups do not see keys appended by this process (callers do not
  /// re-run what they just ran).
  [[nodiscard]] const std::vector<std::uint8_t>* find(const std::string& key) const;

  [[nodiscard]] std::size_t loaded_entries() const noexcept { return entries_.size(); }

  /// Durably appends one completed-cell record.  NOT thread-safe: callers
  /// running cells in parallel serialize appends under their own mutex.
  void append(const std::string& key, const std::vector<std::uint8_t>& payload);

 private:
  std::map<std::string, std::vector<std::uint8_t>> entries_;
  AppendLog log_;  ///< after entries_: its initializer replays into them
};

}  // namespace msim::persist
