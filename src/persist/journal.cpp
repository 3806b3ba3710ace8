#include "persist/journal.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"
#include "persist/atomic_file.hpp"

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
  if (hex.size() % 2 != 0) throw PersistError("journal: odd-length hex payload");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw PersistError("journal: invalid hex digit in payload");
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

std::string hex_u64(std::uint64_t v) {
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) out += kHexDigits[(v >> shift) & 0xf];
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

/// Parses journal `content`: validates the header strictly, loads entries
/// until the first malformed line (a torn tail), and reports in
/// `valid_bytes` how far the well-formed prefix reaches — the truncation
/// point that makes the file safe to append to again.
std::map<std::string, std::vector<std::uint8_t>> parse_journal(
    const std::string& content, const std::string& path,
    std::uint64_t fingerprint, std::size_t& valid_bytes) {
  std::map<std::string, std::vector<std::uint8_t>> entries;
  std::size_t pos = 0;
  bool first = true;
  valid_bytes = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail: ignore
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      valid_bytes = pos;
      continue;
    }
    if (first) {
      first = false;
      JsonValue header;
      try {
        header = JsonValue::parse(line);
      } catch (const std::invalid_argument&) {
        throw PersistError("'" + path + "' is not a msim sweep journal");
      }
      if (!header.is_object() || !header.contains("msim_sweep_journal")) {
        throw PersistError("'" + path + "' is not a msim sweep journal");
      }
      const auto version =
          static_cast<std::uint32_t>(header.at("msim_sweep_journal").as_number());
      if (version != kJournalFormatVersion) {
        throw PersistError("'" + path + "' has journal format version " +
                           std::to_string(version) +
                           "; this binary writes version " +
                           std::to_string(kJournalFormatVersion));
      }
      const std::string& fp = header.at("fingerprint").as_string();
      if (fp != hex_u64(fingerprint)) {
        throw PersistError(
            "'" + path + "' belongs to sweep fingerprint " + fp +
            " but this sweep has " + hex_u64(fingerprint) +
            "; a journal only resumes the exact sweep request it was "
            "written for (docs/CHECKPOINT.md)");
      }
      valid_bytes = pos;
      continue;
    }
    JsonValue entry;
    try {
      entry = JsonValue::parse(line);
    } catch (const std::invalid_argument&) {
      break;  // torn or corrupt entry: everything before it still counts
    }
    if (!entry.is_object() || !entry.contains("cell") ||
        !entry.contains("payload")) {
      break;
    }
    try {
      entries[entry.at("cell").as_string()] =
          from_hex(entry.at("payload").as_string());
    } catch (const PersistError&) {
      break;
    }
    valid_bytes = pos;
  }
  if (first) {
    throw PersistError("'" + path + "' is empty or has no journal header");
  }
  return entries;
}

}  // namespace

SweepJournal::SweepJournal(std::string path, std::uint64_t fingerprint,
                           bool resume)
    : path_(std::move(path)) {
  bool have_file = false;
  std::string existing;
  if (resume) {
    try {
      existing = read_file(path_);
      have_file = true;
    } catch (const std::runtime_error&) {
      have_file = false;  // no journal yet: run the whole sweep
    }
  }
  if (have_file) {
    std::size_t valid_bytes = 0;
    entries_ = parse_journal(existing, path_, fingerprint, valid_bytes);
    if (valid_bytes < existing.size()) {
      // Torn tail: cut it off before reopening for append.  The fd below is
      // O_APPEND, so without this the next record would be glued onto the
      // torn bytes and a later load would discard both.
      if (::truncate(path_.c_str(), static_cast<::off_t>(valid_bytes)) != 0) {
        throw std::runtime_error("cannot truncate torn tail of journal '" +
                                 path_ + "': " + std::strerror(errno));
      }
    }
  } else {
    // Fresh journal: atomic header write so a crash here leaves either no
    // journal or a valid one.
    write_text_atomic(path_, header_line(fingerprint));
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open journal '" + path_ +
                             "' for appending: " + std::strerror(errno));
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) (void)::close(fd_);
}

const std::vector<std::uint8_t>* SweepJournal::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SweepJournal::append(const std::string& key,
                          const std::vector<std::uint8_t>& payload) {
  const std::string line = entry_line(key, payload);
  std::size_t written = 0;
  while (written < line.size()) {
    const ::ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("journal append failed for '" + path_ +
                               "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("journal fsync failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
}

}  // namespace msim::persist
