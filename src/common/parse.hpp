// Strict decimal parsing for command-line flags and environment variables:
// the whole text must be a decimal integer in range, or the caller gets an
// error that names the flag or variable and the text. (strtoull/atoi read
// "abc" as 0, "2k" as 2 and "1e6" as 1 without complaint.)
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace mm {

/// `text` as the value of `what` (a flag or an environment variable):
/// decimal digits only (no sign, no spaces), in [min, numeric_limits<T>::max()].
/// Throws std::invalid_argument naming `what` and `text` otherwise.
template <typename T = std::uint64_t>
[[nodiscard]] T parse_decimal(std::string_view what, std::string_view text, T min = 0) {
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const char* const end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < static_cast<std::uint64_t>(min) || v > kMax)
    throw std::invalid_argument{std::string{what} + " wants a decimal integer in [" +
                                std::to_string(min) + ", " + std::to_string(kMax) +
                                "], got '" + std::string{text} + "'"};
  return static_cast<T>(v);
}

}  // namespace mm
