// Dependency-free JSON support for machine-readable run reports.
//
// JsonWriter is a streaming emitter with automatic comma/indent handling:
// reports (statistics registries, sweep grids, resolved configurations) are
// written directly to an ostream without building a document tree.  JsonValue
// is a minimal recursive-descent parser used by round-trip tests and by
// tooling that reads the reports back.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msim {

/// Streaming JSON emitter.  Calls must form a well-formed document:
/// values at top level or inside arrays, key() before every value inside
/// objects.  Misuse trips MSIM_CHECK.
class JsonWriter {
 public:
  /// `indent` = 0 emits compact single-line output.
  explicit JsonWriter(std::ostream& os, int indent = 2) : os_(os), indent_(indent) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key; the next call must produce its value.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(double x);
  void value(std::uint64_t x);
  void value(std::int64_t x);
  void value(std::uint32_t x) { value(std::uint64_t{x}); }
  void value(std::int32_t x) { value(std::int64_t{x}); }
  void null();

  /// key() + value() in one call.
  template <typename T>
  void kv(std::string_view name, const T& x) {
    key(name);
    value(x);
  }

  /// True once every opened scope has been closed and a root value written.
  [[nodiscard]] bool complete() const noexcept;

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& os_;
  int indent_;
  struct Level {
    Scope scope;
    bool has_items = false;
  };
  std::vector<Level> stack_;
  bool key_pending_ = false;
  bool root_written_ = false;
};

/// Escapes `s` as a JSON string literal (including the quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// "0x" + 16 lowercase hex digits: how reports and logs spell 64-bit
/// digests and fingerprints, which do not survive a JSON double.
[[nodiscard]] std::string hex_u64(std::uint64_t v);

/// Parsed JSON document node.  Numbers are stored as double (sufficient for
/// report round-trips; counters up to 2^53 are exact).
class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document; throws std::invalid_argument on malformed
  /// input, trailing garbage or arrays/objects nested deeper than 64 levels.
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  /// Typed accessors; throw std::invalid_argument on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  /// as_number() converted to T; throws std::invalid_argument unless the
  /// number is integral and fits T (1.5, 1e300 and -1 for unsigned do not).
  template <typename T>
  [[nodiscard]] T as_integer() const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    // Both bounds are powers of two (or zero), so exact as doubles.
    return static_cast<T>(integral_number(
        static_cast<double>(std::numeric_limits<T>::min()),
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1)));
  }

  /// Object member lookup; throws std::invalid_argument when absent.
  [[nodiscard]] const JsonValue& at(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;

 private:
  /// as_number() when it is an integer in [lo, hi); throws otherwise.
  [[nodiscard]] double integral_number(double lo, double hi) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

}  // namespace msim
