// Minimal JSON value + parser + writer for the chaos repro format.
//
// Deliberately small: the repo takes no third-party dependencies, and the
// repro files only need objects, arrays, strings, booleans, null, and
// numbers. Unsigned integers are kept exactly (64-bit seeds must round-trip
// bit-for-bit; doubles cannot represent them), everything else numeric is a
// double printed with enough digits to round-trip.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mm::fault {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  using Array = std::vector<Json>;
  /// Object entries keep insertion order so written files diff cleanly.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() noexcept : v_(nullptr) {}

  // Factories are defined out of line: inlining the variant move into
  // consumer TUs trips GCC 12's -Wmaybe-uninitialized false positive on the
  // inactive string/vector alternatives (PR105562) under sanitizer builds.
  [[nodiscard]] static Json boolean(bool b);
  [[nodiscard]] static Json uint(std::uint64_t u);
  [[nodiscard]] static Json number(double d);
  [[nodiscard]] static Json str(std::string s);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }

  /// Checked accessors — throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  /// Accepts an exact unsigned or a non-negative integral double.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Array append / object insert (builders).
  void push(Json v);
  void set(std::string key, Json v);

  /// Object lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object lookup that throws when the key is missing.
  [[nodiscard]] const Json& at(std::string_view key) const;

  [[nodiscard]] std::string dump(int indent = 0) const;
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  using Value =
      std::variant<std::nullptr_t, bool, std::uint64_t, double, std::string, Array, Object>;
  explicit Json(Value v);

  void dump_to(std::string& out, int indent, int depth) const;

  Value v_;
};

}  // namespace mm::fault
