// Minimal JSON writer.
//
// Benches and the CLI export structured results (phase breakdowns, traces)
// for downstream tooling, with proper string escaping and locale-independent
// number formatting. This header only writes JSON; the replay and serve
// spec readers (core/replay.cpp, runtime/serve_spec.cpp) parse it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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

}  // namespace supmr
