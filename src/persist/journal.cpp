#include "persist/journal.hpp"

#include <stdexcept>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"

namespace msim::persist {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += kHexDigits[b >> 4];
    out += kHexDigits[b & 0xf];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("journal: odd-length hex payload");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw std::invalid_argument("journal: invalid hex digit in payload");
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

std::string header_line(std::uint64_t fingerprint) {
  return "{\"msim_sweep_journal\": " + std::to_string(kJournalFormatVersion) +
         ", \"fingerprint\": \"" + hex_u64(fingerprint) + "\"}\n";
}

std::string entry_line(const std::string& key,
                       const std::vector<std::uint8_t>& payload) {
  return "{\"cell\": " + json_escape(key) + ", \"payload\": \"" +
         to_hex(payload) + "\"}\n";
}

/// Validates the header strictly: a journal only resumes the exact sweep
/// request (format version + fingerprint) it was written for.
void check_header(std::string_view line, const std::string& path,
                  std::uint64_t fingerprint) {
  std::uint32_t version = 0;
  std::string fp;
  try {
    const JsonValue header = JsonValue::parse(line);
    version = header.at("msim_sweep_journal").as_integer<std::uint32_t>();
    fp = header.at("fingerprint").as_string();
  } catch (const std::invalid_argument&) {
    throw PersistError("'" + path + "' is not a msim sweep journal");
  }
  if (version != kJournalFormatVersion) {
    throw PersistError("'" + path + "' has journal format version " +
                       std::to_string(version) +
                       "; this binary writes version " +
                       std::to_string(kJournalFormatVersion));
  }
  if (fp != hex_u64(fingerprint)) {
    throw PersistError(
        "'" + path + "' belongs to sweep fingerprint " + fp +
        " but this sweep has " + hex_u64(fingerprint) +
        "; a journal only resumes the exact sweep request it was "
        "written for (docs/CHECKPOINT.md)");
  }
}

/// What the journal at `path` starts with: with `resume`, the replayed
/// prefix of an existing file (its entries loaded into `entries`);
/// otherwise, or when there is no file yet, a fresh header.
std::string initial_content(
    const std::string& path, std::uint64_t fingerprint, bool resume,
    std::map<std::string, std::vector<std::uint8_t>>& entries) {
  if (!resume) return header_line(fingerprint);
  const auto kept = AppendLog::replay(
      path,
      [&](std::string_view line) { check_header(line, path, fingerprint); },
      [&](std::string_view line) {
        try {
          const JsonValue entry = JsonValue::parse(line);
          std::vector<std::uint8_t> payload =
              from_hex(entry.at("payload").as_string());
          entries[entry.at("cell").as_string()] = std::move(payload);
          return true;
        } catch (const std::invalid_argument&) {
          return false;  // torn or corrupt: this cell and the rest re-run
        }
      });
  return kept.value_or(header_line(fingerprint));
}

}  // namespace

SweepJournal::SweepJournal(const std::string& path, std::uint64_t fingerprint,
                           bool resume)
    : log_(path, initial_content(path, fingerprint, resume, entries_)) {}

const std::vector<std::uint8_t>* SweepJournal::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SweepJournal::append(const std::string& key,
                          const std::vector<std::uint8_t>& payload) {
  log_.append(entry_line(key, payload));
  log_.sync();
}

}  // namespace msim::persist
