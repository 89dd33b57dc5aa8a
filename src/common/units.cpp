#include "common/units.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace supmr {

namespace {

struct Suffix {
  const char* name;
  std::uint64_t mult;
};

// Longest-match first so "MiB" is not parsed as "M" + trailing junk.
constexpr std::array<Suffix, 18> kSuffixes = {{
    {"KIB", kKiB}, {"MIB", kMiB}, {"GIB", kGiB}, {"TIB", 1024ULL * kGiB},
    {"KB", kKB},   {"MB", kMB},   {"GB", kGB},   {"TB", kTB},
    {"K", kKB},    {"M", kMB},    {"G", kGB},    {"T", kTB},
    {"B", 1},      {"", 1},
    // Lowercase single letters commonly seen in CLI flags.
    {"KI", kKiB},  {"MI", kMiB},  {"GI", kGiB},  {"TI", 1024ULL * kGiB},
}};

}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= kTB) {
    std::snprintf(buf, sizeof(buf), "%.2fTB", double(bytes) / double(kTB));
  } else if (bytes >= kGB) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", double(bytes) / double(kGB));
  } else if (bytes >= kMB) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", double(bytes) / double(kMB));
  } else if (bytes >= kKB) {
    std::snprintf(buf, sizeof(buf), "%.2fKB", double(bytes) / double(kKB));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string format_rate(double bytes_per_sec) {
  char buf[64];
  if (bytes_per_sec >= double(kGB)) {
    std::snprintf(buf, sizeof(buf), "%.1f GB/s", bytes_per_sec / double(kGB));
  } else if (bytes_per_sec >= double(kMB)) {
    std::snprintf(buf, sizeof(buf), "%.1f MB/s", bytes_per_sec / double(kMB));
  } else if (bytes_per_sec >= double(kKB)) {
    std::snprintf(buf, sizeof(buf), "%.1f KB/s", bytes_per_sec / double(kKB));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f B/s", bytes_per_sec);
  }
  return buf;
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds >= 1.0 || seconds == 0.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fus", seconds * 1e6);
  }
  return buf;
}

std::optional<std::uint64_t> parse_size(std::string_view text) {
  // Trim whitespace.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin) return std::nullopt;
  if (!std::isfinite(value) || value < 0) return std::nullopt;

  std::string suffix;
  for (const char* p = ptr; p != end; ++p) {
    if (std::isspace(static_cast<unsigned char>(*p))) continue;
    suffix.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(*p))));
  }

  for (const auto& s : kSuffixes) {
    if (suffix == s.name) {
      const double result = std::round(value * double(s.mult));
      if (result >= 0x1p64) return std::nullopt;  // would overflow uint64
      return static_cast<std::uint64_t>(result);
    }
  }
  return std::nullopt;
}

}  // namespace supmr
