// key=value configuration parsing for bench/example command lines.
//
// Every bench binary accepts overrides like `iq=64 threads=2 horizon=500000`
// so experiments can be re-run at different scales without recompiling.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msim {

/// An ordered key=value store parsed from command-line words.
/// Unknown keys are kept and can be listed, so a bench can reject typos.
class KvConfig {
 public:
  KvConfig() = default;

  /// Parses words of the form `key=value`; a bare word is an error.
  /// Throws std::invalid_argument on malformed input.
  static KvConfig parse(std::span<const char* const> args);
  static KvConfig parse_strings(std::span<const std::string> args);

  void set(std::string key, std::string value);

  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters; return `fallback` when the key is absent and throw
  /// std::invalid_argument when the value does not parse.
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Non-negative knob of integer type T: a value that does not fit T
  /// does not parse, so `get_uint<std::uint32_t>("iq", 64)` never wraps
  /// 4294967360 to 64.
  template <std::integral T = std::uint64_t>
  [[nodiscard]] T get_uint(std::string_view key, std::type_identity_t<T> fallback) const {
    return static_cast<T>(uint_at_most(key, static_cast<std::uint64_t>(fallback),
                                       std::numeric_limits<T>::max()));
  }

  /// Comma-separated list of non-negative values of type T, e.g. "32,48,64".
  template <std::integral T = std::uint64_t>
  [[nodiscard]] std::vector<T> get_uint_list(
      std::string_view key, std::type_identity_t<std::vector<T>> fallback) const {
    if (!has(key)) return fallback;
    const std::vector<std::uint64_t> wide =
        uint_list_at_most(key, std::numeric_limits<T>::max());
    return std::vector<T>(wide.begin(), wide.end());
  }

  /// Keys present in the config but not in `known`; benches use this to
  /// reject misspelled parameters instead of silently ignoring them.
  [[nodiscard]] std::vector<std::string> unknown_keys(
      std::span<const std::string_view> known) const;

  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& entries() const {
    return values_;
  }

 private:
  [[nodiscard]] std::uint64_t uint_at_most(std::string_view key, std::uint64_t fallback,
                                           std::uint64_t max) const;
  [[nodiscard]] std::vector<std::uint64_t> uint_list_at_most(std::string_view key,
                                                             std::uint64_t max) const;

  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace msim
