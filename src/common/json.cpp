#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

namespace supmr {

void JsonWriter::value(double v) {
  comma();
  char buf[40];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    // JSON has no inf/nan; emit null like most serializers.
    std::snprintf(buf, sizeof(buf), "null");
  }
  out_ += buf;
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
}

void JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
}

void JsonWriter::append_string(std::string_view s) {
  out_ += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += static_cast<char>(c);
        }
    }
  }
  out_ += '"';
}

template <typename T>
StatusOr<T> JsonValue::as() const {
  if constexpr (std::is_same_v<T, bool>) {
    if (type_ == Type::kBool) return text_ == "true";
    return mismatch("true or false");
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (type_ == Type::kString) return text_;
    return mismatch("a string");
  } else {
    const char* end = text_.data() + text_.size();
    T v{};
    if (type_ == Type::kNumber) {
      const auto [stop, ec] = std::from_chars(text_.data(), end, v);
      if (ec == std::errc() && stop == end) return v;
    }
    return mismatch("an integer in [" +
                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
  }
}

template StatusOr<bool> JsonValue::as<bool>() const;
template StatusOr<std::string> JsonValue::as<std::string>() const;
template StatusOr<int> JsonValue::as<int>() const;
template StatusOr<std::int64_t> JsonValue::as<std::int64_t>() const;
template StatusOr<std::uint32_t> JsonValue::as<std::uint32_t>() const;
template StatusOr<std::uint64_t> JsonValue::as<std::uint64_t>() const;

Status JsonValue::mismatch(const std::string& expected) const {
  const std::string got = type_ == Type::kString   ? "a string"
                          : type_ == Type::kArray  ? "an array"
                          : type_ == Type::kObject ? "an object"
                                                   : text_;
  return Status::InvalidArgument("expected " + expected + ", got " + got);
}

// Recursive descent over one document; each method starts at the first
// byte of its production and leaves pos_ just past it.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> document() {
    JsonValue doc;
    SUPMR_RETURN_IF_ERROR(value(doc, 0));
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing data after the document");
    return doc;
  }

 private:
  using Type = JsonValue::Type;

  Status fail(const std::string& what) const {
    return Status::InvalidArgument(what + " at byte " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!eof() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                      text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // Consumes `c` if it is the next byte.
  bool take(char c) {
    if (eof() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  // take() after optional whitespace.
  bool consume(char c) {
    skip_ws();
    return take(c);
  }

  Status expect(char c) {
    return consume(c) ? Status::Ok()
                      : fail(std::string("expected '") + c + "'");
  }

  // `depth` counts the arrays and objects enclosing the value.
  Status value(JsonValue& v, int depth) {
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (c == '{') return object(v, depth + 1);
    if (c == '[') return array(v, depth + 1);
    if (c == '"') {
      v.type_ = Type::kString;
      return string(v.text_);
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        v.type_ = word == "null" ? Type::kNull : Type::kBool;
        v.text_ = word;
        return Status::Ok();
      }
    }
    v.type_ = Type::kNumber;
    return number(v.text_);
  }

  Status object(JsonValue& v, int depth) {
    ++pos_;  // '{'
    v.type_ = Type::kObject;
    if (consume('}')) return Status::Ok();
    do {
      skip_ws();
      if (eof() || text_[pos_] != '"') return fail("expected object key");
      const std::size_t key_at = pos_;
      std::string key;
      SUPMR_RETURN_IF_ERROR(string(key));
      for (const JsonValue::Member& m : v.members_) {
        if (m.first == key) {
          pos_ = key_at;
          return fail("duplicate key \"" + key + "\"");
        }
      }
      SUPMR_RETURN_IF_ERROR(expect(':'));
      v.members_.emplace_back(std::move(key), JsonValue());
      SUPMR_RETURN_IF_ERROR(value(v.members_.back().second, depth));
    } while (consume(','));
    return expect('}');
  }

  Status array(JsonValue& v, int depth) {
    ++pos_;  // '['
    v.type_ = Type::kArray;
    if (consume(']')) return Status::Ok();
    do {
      v.items_.emplace_back();
      SUPMR_RETURN_IF_ERROR(value(v.items_.back(), depth));
    } while (consume(','));
    return expect(']');
  }

  Status string(std::string& out) {
    ++pos_;  // opening '"'
    while (!eof()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      ++pos_;
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      switch (const char e = text_[pos_++]) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': SUPMR_RETURN_IF_ERROR(unicode_escape(out)); break;
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  // The four hex digits of a \uXXXX escape.
  StatusOr<std::uint32_t> hex4() {
    const std::string_view hex = text_.substr(pos_, 4);
    std::uint32_t unit = 0;
    const auto [stop, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), unit, 16);
    if (ec != std::errc() || stop != hex.data() + 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
    return unit;
  }

  // Appends the UTF-8 form of the escape after "\u"; a high surrogate must
  // be followed by an escaped low one.
  Status unicode_escape(std::string& out) {
    SUPMR_ASSIGN_OR_RETURN(std::uint32_t cp, hex4());
    if (cp >= 0xDC00 && cp < 0xE000) return fail("unpaired surrogate");
    if (cp >= 0xD800 && cp < 0xDC00) {
      if (!take('\\') || !take('u')) return fail("unpaired surrogate");
      SUPMR_ASSIGN_OR_RETURN(const std::uint32_t low, hex4());
      if (low < 0xDC00 || low >= 0xE000) return fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte, then six bits per continuation byte.
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += char(kLead[extra] | cp >> (6 * extra));
    for (int shift = 6 * (extra - 1); shift >= 0; shift -= 6) {
      out += char(0x80 | (cp >> shift & 0x3F));
    }
    return Status::Ok();
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as its text.
  Status number(std::string& out) {
    const std::size_t start = pos_;
    take('-');
    if (!take('0') && !digits()) return fail("invalid value");
    if (take('.') && !digits()) return fail("expected digit");
    if (take('e') || take('E')) {
      if (!take('+')) take('-');
      if (!digits()) return fail("expected digit");
    }
    out.assign(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  bool digits() {
    const std::size_t start = pos_;
    while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

StatusOr<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).document();
}

}  // namespace supmr
