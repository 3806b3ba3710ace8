#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/check.hpp"

namespace msim {

// ---- JsonWriter -------------------------------------------------------------

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) {
    os_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    MSIM_CHECK(!root_written_);  // one root value per document
    root_written_ = true;
    return;
  }
  Level& top = stack_.back();
  if (top.scope == Scope::kObject) {
    MSIM_CHECK(key_pending_);  // object members need key() first
    key_pending_ = false;
    return;
  }
  if (top.has_items) os_ << ',';
  top.has_items = true;
  newline_indent();
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({Scope::kObject});
}

void JsonWriter::end_object() {
  MSIM_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject && !key_pending_);
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  os_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({Scope::kArray});
}

void JsonWriter::end_array() {
  MSIM_CHECK(!stack_.empty() && stack_.back().scope == Scope::kArray);
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  os_ << ']';
}

void JsonWriter::key(std::string_view name) {
  MSIM_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject && !key_pending_);
  if (stack_.back().has_items) os_ << ',';
  stack_.back().has_items = true;
  newline_indent();
  write_escaped(name);
  os_ << (indent_ > 0 ? ": " : ":");
  key_pending_ = true;
}

void JsonWriter::write_escaped(std::string_view s) { os_ << json_escape(s); }

void JsonWriter::value(std::string_view s) {
  before_value();
  write_escaped(s);
}

void JsonWriter::value(bool b) {
  before_value();
  os_ << (b ? "true" : "false");
}

void JsonWriter::value(double x) {
  before_value();
  if (!std::isfinite(x)) {
    os_ << "null";  // JSON has no Inf/NaN literals
    return;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", x);
  os_.write(buf, n);
}

void JsonWriter::value(std::uint64_t x) {
  before_value();
  os_ << x;
}

void JsonWriter::value(std::int64_t x) {
  before_value();
  os_ << x;
}

void JsonWriter::null() {
  before_value();
  os_ << "null";
}

bool JsonWriter::complete() const noexcept {
  return stack_.empty() && root_written_ && !key_pending_;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string hex_u64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) out += kHex[(v >> shift) & 0xf];
  return out;
}

// ---- JsonValue parser -------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("JSON parse error at offset " + std::to_string(pos_) +
                                ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:  return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.type_ = JsonValue::Type::kBool;
    v.bool_ = b;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out += '"'; break;
        case '\\': out += '\\'; break;
        case '/':  out += '/'; break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Reports only emit \u for control characters; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double x = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, x);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("malformed number");
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = x;
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace(std::move(name), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  // Each array/object level is a parse_value frame, so the depth is bounded
  // for documents from outside (request bodies, replayed journal lines):
  // unbounded, 100,000 '[' overflow a thread's stack.  The deepest document
  // the program writes, the sweep JSON, nests 6 levels.
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

namespace {
[[noreturn]] void type_error(const char* want) {
  throw std::invalid_argument(std::string("JSON value is not a ") + want);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number");
  return number_;
}

double JsonValue::integral_number(double lo, double hi) const {
  const double x = as_number();
  if (!(x >= lo && x < hi) || x != std::trunc(x)) {
    throw std::invalid_argument("JSON number is not an integer in range");
  }
  return x;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_error("object");
  return object_;
}

const JsonValue& JsonValue::at(std::string_view name) const {
  const auto& obj = as_object();
  const auto it = obj.find(std::string(name));
  if (it == obj.end()) {
    throw std::invalid_argument("JSON object has no member '" + std::string(name) + "'");
  }
  return it->second;
}

bool JsonValue::contains(std::string_view name) const {
  if (type_ != Type::kObject) return false;
  return object_.contains(std::string(name));
}

}  // namespace msim
