// JSON writer and strict reader.
//
// JsonWriter exports structured results (phase breakdowns, traces, repro
// specs) with proper string escaping and locale-independent number
// formatting. parse_json reads one document back: the RFC 8259 grammar (no
// trailing commas, comments, bare NaN/Infinity or leading zeros) with
// \uXXXX escapes decoded to UTF-8, and duplicate object keys, unpaired
// surrogates and nesting deeper than kMaxJsonDepth rejected. It is the one
// JSON reader: the replay and serve specs (core/replay.cpp,
// runtime/serve_spec.cpp) and the tests' document checks all use it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace supmr {

class JsonWriter {
 public:
  // Nested objects/arrays are driven by begin/end calls; the writer tracks
  // comma placement. Keys are only valid inside objects.
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view name) {
    comma();
    append_string(name);
    out_ += ':';
    just_keyed_ = true;
  }

  void value(std::string_view s) {
    comma();
    append_string(s);
  }
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(std::int64_t{v}); }
  void value(bool b) {
    comma();
    out_ += b ? "true" : "false";
  }

  // key+value conveniences.
  template <typename T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  void open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
  }
  void close(char c) {
    out_ += c;
    need_comma_ = true;
    just_keyed_ = false;
  }
  void append_string(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
  bool just_keyed_ = false;
};

// Arrays and objects nested deeper than this are rejected; the top-level
// value is depth 1.
inline constexpr int kMaxJsonDepth = 64;

// One parsed JSON value. Numbers keep their literal text, so an integer read
// is exact at any width and a fraction never passes as an integer.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  Type type() const { return type_; }

  // Typed read: InvalidArgument unless the value has the matching JSON
  // type. T is bool, std::string, int, std::int64_t, std::uint32_t or
  // std::uint64_t; an integer read also needs an integer literal inside
  // T's range.
  template <typename T>
  StatusOr<T> as() const;

  // An array's elements; empty for any other type.
  const std::vector<JsonValue>& items() const { return items_; }
  // An object's members in document order, keys unique; empty for any
  // other type.
  const std::vector<Member>& members() const { return members_; }

 private:
  friend class JsonParser;

  Status mismatch(const std::string& expected) const;

  Type type_ = Type::kNull;
  std::string text_;  // a string's decoded bytes, else the literal's text
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

// Parses `text` as exactly one JSON document. Errors are InvalidArgument
// and name the byte offset of the first offending byte.
StatusOr<JsonValue> parse_json(std::string_view text);

}  // namespace supmr
