// Tiny command-line flag parser for the supmr CLI.
//
// Supports --name=value and --name (boolean) flags interleaved with
// positional arguments. Unknown flags are an error so typos fail loudly.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace supmr::tools {

class Flags {
 public:
  // `known` lists the accepted flag names (without the leading --).
  static StatusOr<Flags> parse(int argc, char** argv,
                               const std::set<std::string>& known) {
    Flags flags;
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq == std::string::npos
                                                   ? std::string::npos
                                                   : eq - 2);
        if (known.find(name) == known.end()) {
          return Status::InvalidArgument("unknown flag --" + name);
        }
        flags.values_[name] =
            eq == std::string::npos ? "true" : arg.substr(eq + 1);
      } else {
        flags.positional_.push_back(arg);
      }
    }
    return flags;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  std::optional<std::string> get(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& name, std::string def) const {
    auto v = get(name);
    return v ? *v : def;
  }

  bool get_bool(const std::string& name) const {
    auto v = get(name);
    return v && *v != "false" && *v != "0";
  }

  StatusOr<std::uint64_t> get_size(const std::string& name,
                                   std::uint64_t def) const {
    auto v = get(name);
    if (!v) return def;
    auto parsed = parse_size(*v);
    if (!parsed) {
      return Status::InvalidArgument("bad size for --" + name + ": " + *v);
    }
    return *parsed;
  }

  // Reads a decimal integer of type T. A sign on an unsigned T, or a value
  // outside T's range, is an error rather than a wrapped or saturated value.
  template <typename T = std::uint64_t>
  StatusOr<T> get_int(const std::string& name,
                      std::type_identity_t<T> def) const {
    auto v = get(name);
    if (!v) return def;
    T parsed{};
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, parsed);
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument("bad integer for --" + name + ": " + *v);
    }
    return parsed;
  }

  StatusOr<double> get_double(const std::string& name, double def) const {
    auto v = get(name);
    if (!v) return def;
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') {
      return Status::InvalidArgument("bad number for --" + name + ": " + *v);
    }
    return parsed;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace supmr::tools
