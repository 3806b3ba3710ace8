#include "common/config.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace msim {
namespace {

[[noreturn]] void bad(std::string_view what, std::string_view detail) {
  throw std::invalid_argument(std::string(what) + ": '" + std::string(detail) + "'");
}

template <typename T>
T parse_number(std::string_view key, std::string_view text) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    bad("config value for '" + std::string(key) + "' does not parse", text);
  }
  return value;
}

std::uint64_t parse_uint_at_most(std::string_view key, std::string_view text,
                                 std::uint64_t max) {
  const auto value = parse_number<std::uint64_t>(key, text);
  if (value > max) {
    bad("config value for '" + std::string(key) + "' exceeds " + std::to_string(max),
        text);
  }
  return value;
}

}  // namespace

KvConfig KvConfig::parse(std::span<const char* const> args) {
  std::vector<std::string> words;
  words.reserve(args.size());
  for (const char* a : args) words.emplace_back(a);
  return parse_strings(words);
}

KvConfig KvConfig::parse_strings(std::span<const std::string> args) {
  KvConfig cfg;
  for (const std::string& word : args) {
    const auto eq = word.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad("expected key=value argument", word);
    }
    cfg.set(word.substr(0, eq), word.substr(eq + 1));
  }
  return cfg;
}

void KvConfig::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool KvConfig::has(std::string_view key) const { return values_.count(key) > 0; }

std::string KvConfig::get_string(std::string_view key, std::string_view fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string(fallback) : it->second;
}

std::int64_t KvConfig::get_int(std::string_view key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_number<std::int64_t>(key, it->second);
}

double KvConfig::get_double(std::string_view key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // std::from_chars for double is available in GCC 12; use it for consistency.
  double value{};
  const std::string& text = it->second;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("config value for '" + std::string(key) +
                                "' does not parse as double: '" + text + "'");
  }
  return value;
}

bool KvConfig::get_bool(std::string_view key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config value for '" + std::string(key) +
                              "' is not a boolean: '" + v + "'");
}

std::uint64_t KvConfig::uint_at_most(std::string_view key, std::uint64_t fallback,
                                     std::uint64_t max) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_uint_at_most(key, it->second, max);
}

std::vector<std::uint64_t> KvConfig::uint_list_at_most(std::string_view key,
                                                       std::uint64_t max) const {
  std::vector<std::uint64_t> out;
  const std::string& text = values_.find(key)->second;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    const std::string_view piece(text.data() + start, end - start);
    if (piece.empty()) {
      throw std::invalid_argument("empty element in list for '" + std::string(key) + "'");
    }
    out.push_back(parse_uint_at_most(key, piece, max));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> KvConfig::unknown_keys(
    std::span<const std::string_view> known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace msim
