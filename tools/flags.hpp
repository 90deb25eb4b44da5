// Strict numeric flag values for the command-line tools: the whole token must
// be a decimal integer in the flag's range, or the tool stops with a message
// that names the flag. (strtoull/atoi read "abc" as 0, "2k" as 2 and "1e9"
// as 1 without complaint.)
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace mm::tools {

/// `text` as the value of `flag`: decimal digits only (no sign, no spaces),
/// in [0, numeric_limits<T>::max()]. Throws std::runtime_error otherwise.
template <typename T = std::uint64_t>
[[nodiscard]] T parse_flag(const std::string& flag, const char* text) {
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const char* const end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (text == end || ec != std::errc{} || ptr != end || v > kMax)
    throw std::runtime_error{flag + " wants a decimal integer in [0, " + std::to_string(kMax) +
                             "], got '" + text + "'"};
  return static_cast<T>(v);
}

}  // namespace mm::tools
