#include "serve/ledger.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"
#include "persist/atomic_file.hpp"

namespace msim::serve {

namespace {

std::string header_line(std::uint64_t next_id) {
  return "{\"msim_job_ledger\": " + std::to_string(kLedgerFormatVersion) +
         ", \"next_id\": " + std::to_string(next_id) + "}\n";
}

std::string accepted_line(const LedgerJob& job) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("record", "accepted");
  w.kv("id", job.id);
  w.kv("priority", std::int64_t{job.priority});
  w.kv("sweep", job.sweep);
  if (!job.idempotency_key.empty()) {
    w.kv("idempotency_key", job.idempotency_key);
  }
  if (job.ttl_ms != 0) w.kv("ttl_ms", job.ttl_ms);
  w.key("config");
  w.begin_object();
  for (const auto& [key, value] : job.kv.entries()) w.kv(key, value);
  w.end_object();
  w.end_object();
  os << '\n';
  return os.str();
}

std::string transition_line(std::string_view record, std::uint64_t id,
                            std::string_view field, std::string_view text) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("record", record);
  w.kv("id", id);
  if (!field.empty()) w.kv(field, text);
  w.end_object();
  os << '\n';
  return os.str();
}

/// Applies one parsed record to the per-id merge.  Records can reach the
/// file in near-but-not-exact submission order (appends are serialized,
/// but a transition for job A may land before job B's `accepted`), so the
/// merge is keyed by id and tolerant of any inter-job interleaving.
void apply_record(std::map<std::uint64_t, LedgerJob>& jobs,
                  const JsonValue& rec) {
  const std::string& kind = rec.at("record").as_string();
  const auto id = static_cast<std::uint64_t>(rec.at("id").as_number());
  LedgerJob& job = jobs[id];
  job.id = id;
  if (kind == "accepted") {
    job.accepted = true;
    job.priority = static_cast<int>(rec.at("priority").as_number());
    job.sweep = rec.at("sweep").as_bool();
    if (rec.contains("idempotency_key")) {
      job.idempotency_key = rec.at("idempotency_key").as_string();
    }
    if (rec.contains("ttl_ms")) {
      job.ttl_ms = static_cast<std::uint64_t>(rec.at("ttl_ms").as_number());
    }
    KvConfig kv;
    for (const auto& [key, value] : rec.at("config").as_object()) {
      kv.set(key, value.as_string());
    }
    job.kv = std::move(kv);
  } else if (kind == "running") {
    job.started = true;
  } else if (kind == "done") {
    job.terminal = true;
    job.state = JobState::kDone;
    job.result_path = rec.at("result_path").as_string();
  } else if (kind == "failed" || kind == "cancelled" || kind == "expired") {
    job.terminal = true;
    job.state = kind == "failed"     ? JobState::kFailed
                : kind == "expired" ? JobState::kExpired
                                     : JobState::kCancelled;
    if (rec.contains("error")) job.error = rec.at("error").as_string();
  } else {
    throw std::invalid_argument("unknown ledger record kind '" + kind + "'");
  }
}

}  // namespace

std::string JobLedger::result_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job" + std::to_string(id) + ".result.json";
}

JobLedger::JobLedger(std::string dir)
    : dir_(std::move(dir)), path_(dir_ + "/ledger.jsonl") {
  std::string existing;
  bool have_file = true;
  try {
    existing = persist::read_file(path_);
  } catch (const std::runtime_error&) {
    have_file = false;  // first start in this directory
  }

  if (have_file) {
    // Replay: strict header, then records until the first malformed line
    // (a torn tail from a crash mid-append -- everything before it counts).
    std::map<std::uint64_t, LedgerJob> jobs;
    std::size_t pos = 0;
    bool first = true;
    while (pos < existing.size()) {
      const std::size_t eol = existing.find('\n', pos);
      if (eol == std::string::npos) break;  // torn tail: no newline
      const std::string line = existing.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (first) {
        first = false;
        JsonValue header;
        try {
          header = JsonValue::parse(line);
        } catch (const std::invalid_argument&) {
          throw persist::PersistError("'" + path_ + "' is not a msim job ledger");
        }
        if (!header.is_object() || !header.contains("msim_job_ledger")) {
          throw persist::PersistError("'" + path_ + "' is not a msim job ledger");
        }
        const auto version = static_cast<std::uint32_t>(
            header.at("msim_job_ledger").as_number());
        if (version > kLedgerFormatVersion) {
          throw persist::PersistError(
              "'" + path_ + "' was written by ledger format version " +
              std::to_string(version) + " but this binary understands up to " +
              std::to_string(kLedgerFormatVersion) +
              "; run a newer msim_serve on this --journal-dir, or point this "
              "one at a fresh directory");
        }
        next_id_ = static_cast<std::uint64_t>(header.at("next_id").as_number());
        continue;
      }
      try {
        const JsonValue rec = JsonValue::parse(line);
        apply_record(jobs, rec);
      } catch (const std::invalid_argument&) {
        break;  // torn or corrupt record: stop here, keep the prefix
      }
    }
    if (first) {
      throw persist::PersistError("'" + path_ + "' is empty or has no ledger header");
    }
    recovered_.reserve(jobs.size());
    for (auto& [id, job] : jobs) {
      next_id_ = std::max(next_id_, id + 1);
      // An executor's `running` (or even terminal) record can land before
      // the submitter's `accepted`; if the daemon died between the two, the
      // client never got its 202 and the ledger never got the config.
      // Drop the job, but never reissue its id.
      if (job.accepted) recovered_.push_back(std::move(job));
    }
  }

  // Compact: rewrite the merged state atomically (fresh header carrying the
  // persisted id counter, one `accepted` per live job plus its terminal
  // record), then reopen for appends.  This both bounds the file's size and
  // cuts any torn tail in one step -- the rename is the commit point.
  std::string compacted = header_line(next_id_);
  for (const LedgerJob& job : recovered_) {
    compacted += accepted_line(job);
    if (job.terminal) {
      switch (job.state) {
        case JobState::kDone:
          compacted += transition_line("done", job.id, "result_path",
                                       job.result_path);
          break;
        case JobState::kFailed:
          compacted += transition_line("failed", job.id, "error", job.error);
          break;
        case JobState::kExpired:
          compacted += transition_line("expired", job.id, "error", job.error);
          break;
        default:
          compacted += transition_line("cancelled", job.id, "error",
                                       job.error);
          break;
      }
    }
    // `running` records are deliberately dropped: a non-terminal job is
    // re-enqueued by recovery, and its journal (not the ledger) knows which
    // sweep cells finished.
  }
  persist::write_text_atomic(path_, compacted);

  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open job ledger '" + path_ +
                             "' for appending: " + std::strerror(errno));
  }
}

JobLedger::~JobLedger() {
  if (fd_ >= 0) (void)::close(fd_);
}

void JobLedger::append_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t written = 0;
  while (written < line.size()) {
    const ::ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ledger append failed for '" + path_ +
                               "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("ledger fsync failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
}

void JobLedger::record_accepted(const Job& job) {
  LedgerJob rec;
  rec.id = job.id;
  rec.priority = job.priority;
  rec.idempotency_key = job.idempotency_key;
  rec.ttl_ms = job.ttl_ms;
  rec.sweep = job.is_sweep;
  rec.kv = job.kv;
  append_line(accepted_line(rec));
}

void JobLedger::record_running(std::uint64_t id) {
  append_line(transition_line("running", id, "", ""));
}

void JobLedger::record_done(std::uint64_t id, const std::string& result_path) {
  append_line(transition_line("done", id, "result_path", result_path));
}

void JobLedger::record_failed(std::uint64_t id, const std::string& error) {
  append_line(transition_line("failed", id, "error", error));
}

void JobLedger::record_cancelled(std::uint64_t id, const std::string& error) {
  append_line(transition_line("cancelled", id, "error", error));
}

void JobLedger::record_expired(std::uint64_t id, const std::string& error) {
  append_line(transition_line("expired", id, "error", error));
}

}  // namespace msim::serve
