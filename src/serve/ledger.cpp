#include "serve/ledger.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"

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

/// Returns the header's next_id; PersistError refuses a file that is not
/// a job ledger or was written by a newer format version.
std::uint64_t decode_header(std::string_view line, const std::string& path) {
  std::uint32_t version = 0;
  try {
    const JsonValue header = JsonValue::parse(line);
    version = header.at("msim_job_ledger").as_integer<std::uint32_t>();
    if (version <= kLedgerFormatVersion) {
      return header.at("next_id").as_integer<std::uint64_t>();
    }
  } catch (const std::invalid_argument&) {
    throw persist::PersistError("'" + path + "' is not a msim job ledger");
  }
  throw persist::PersistError(
      "'" + path + "' was written by ledger format version " +
      std::to_string(version) + " but this binary understands up to " +
      std::to_string(kLedgerFormatVersion) +
      "; run a newer msim_serve on this --journal-dir, or point this one "
      "at a fresh directory");
}

/// Merges one record into the per-id state, all or nothing: every field
/// is decoded into a copy of the job before the copy replaces it, so a
/// record that throws std::invalid_argument changes nothing -- except that
/// its id, once read, is reserved.  Records can reach the file in
/// near-but-not-exact submission order (appends are serialized, but a
/// transition for job A may land before job B's `accepted`), so the merge
/// is keyed by id and tolerant of any inter-job interleaving.
void apply_record(std::map<std::uint64_t, LedgerJob>& jobs,
                  std::string_view line) {
  const JsonValue rec = JsonValue::parse(line);
  const std::string& kind = rec.at("record").as_string();
  const auto id = rec.at("id").as_integer<std::uint64_t>();
  LedgerJob& slot = jobs[id];
  LedgerJob job = slot;
  job.id = id;
  if (kind == "accepted") {
    job.accepted = true;
    job.priority = rec.at("priority").as_integer<int>();
    job.sweep = rec.at("sweep").as_bool();
    if (rec.contains("idempotency_key")) {
      job.idempotency_key = rec.at("idempotency_key").as_string();
    }
    if (rec.contains("ttl_ms")) {
      job.ttl_ms = rec.at("ttl_ms").as_integer<std::uint64_t>();
    }
    job.kv = KvConfig{};
    for (const auto& [key, value] : rec.at("config").as_object()) {
      job.kv.set(key, value.as_string());
    }
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
  slot = std::move(job);
}

/// Replays the ledger at `path` into `next_id` and `recovered` and returns
/// its compacted state: a fresh header carrying the persisted id counter,
/// then one `accepted` per live job plus its terminal record.
std::string replay_and_compact(const std::string& path, std::uint64_t& next_id,
                               std::vector<LedgerJob>& recovered) {
  std::map<std::uint64_t, LedgerJob> jobs;
  (void)persist::AppendLog::replay(
      path,
      [&](std::string_view line) { next_id = decode_header(line, path); },
      [&](std::string_view line) {
        try {
          apply_record(jobs, line);
          return true;
        } catch (const std::invalid_argument&) {
          return false;  // torn or corrupt record: stop here, keep the prefix
        }
      });
  recovered.reserve(jobs.size());
  for (auto& [id, job] : jobs) {
    next_id = std::max(next_id, id + 1);
    // An executor's `running` (or even terminal) record can land before
    // the submitter's `accepted`; if the daemon died between the two, the
    // client never got its 202 and the ledger never got the config.
    // Drop the job, but never reissue its id.
    if (job.accepted) recovered.push_back(std::move(job));
  }

  std::string compacted = header_line(next_id);
  for (const LedgerJob& job : recovered) {
    compacted += accepted_line(job);
    // `running` records are deliberately dropped: a non-terminal job is
    // re-enqueued by recovery, and its journal (not the ledger) knows which
    // sweep cells finished.
    if (!job.terminal) continue;
    compacted += job.state == JobState::kDone
                     ? transition_line("done", job.id, "result_path",
                                       job.result_path)
                     : transition_line(job_state_name(job.state), job.id,
                                       "error", job.error);
  }
  return compacted;
}

}  // namespace

std::string JobLedger::result_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job" + std::to_string(id) + ".result.json";
}

// Compaction both bounds the file's size and cuts any torn tail: the
// atomic rewrite is the commit point.
JobLedger::JobLedger(const std::string& dir)
    : log_(dir + "/ledger.jsonl",
           replay_and_compact(dir + "/ledger.jsonl", next_id_, recovered_)) {}

void JobLedger::append_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  log_.append(line);
  log_.sync();
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
