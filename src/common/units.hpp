// Byte-size and rate units, parsing and human-readable formatting.
//
// SupMR deals in large byte counts (chunk sizes, dataset sizes) and
// bandwidths (disk/link models). This header centralizes the conventions:
// decimal units (GB = 1e9) match the paper's usage ("155GB", "384 MB/s");
// binary units (GiB) are also accepted by the parser.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace supmr {

inline constexpr std::uint64_t kKB = 1000ULL;
inline constexpr std::uint64_t kMB = 1000ULL * kKB;
inline constexpr std::uint64_t kGB = 1000ULL * kMB;
inline constexpr std::uint64_t kTB = 1000ULL * kGB;

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

// Formats a byte count as e.g. "1.50GB", "64B", "512.00MB".
std::string format_bytes(std::uint64_t bytes);

// Formats a rate as e.g. "384.0 MB/s".
std::string format_rate(double bytes_per_sec);

// Formats seconds as e.g. "403.90s" or "1.2ms" for small values.
std::string format_duration(double seconds);

// Parses "1GB", "512MiB", "64k", "100" (bytes), case-insensitive.
// Returns nullopt on malformed input or overflow.
std::optional<std::uint64_t> parse_size(std::string_view text);

// Parses a count field: decimal digits only, the whole of `text`, at most
// 2^64 - 1. Returns nullopt for anything else ("", "12a", "+5", overflow).
inline std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace supmr
