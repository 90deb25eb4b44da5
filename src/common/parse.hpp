// Strict decimal parsing for command-line flags and environment variables:
// the whole text must be a decimal integer in range, or the caller gets an
// error that names the flag or variable and the text. (strtoull/atoi read
// "abc" as 0, "2k" as 2 and "1e6" as 1 without complaint.)
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

/// Positional argument `i` of a program's `argv` through parse_decimal, named
/// `what` in the error, or `dflt` when absent. A malformed or out-of-range
/// value prints the error and exits 2.
template <typename T = std::uint64_t>
[[nodiscard]] T positional_decimal(int argc, char** argv, int i, std::string_view what, T dflt,
                                   T min = 0) {
  if (i >= argc) return dflt;
  try {
    return parse_decimal<T>(what, argv[i], min);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

}  // namespace mm
