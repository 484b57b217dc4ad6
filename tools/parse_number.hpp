// parse_number.hpp — whole-string number parsing for the command-line tools.
//
// Every numeric option, job field and what-if value a tool reads goes
// through parse_number, so "8x", "q" or a value outside the target type's
// range is a usage error instead of a silent 8, 0 or wrap-around.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

namespace fluxpower::tools {

/// Prints `error` (when non-empty) and the tool's usage to stderr and exits
/// with status 2. Each tool defines it.
[[noreturn]] void usage(const char* argv0, const std::string& error = "");

/// The whole of `value` as a T. No digits, trailing text or a value out of
/// T's range is a usage error naming `what`. std::from_chars takes no
/// leading blanks or '+', and for floating-point T also reads "inf" and
/// "nan", which the tools range-check where they use the value.
template <typename T>
T parse_number(const std::string& what, const std::string& value,
               const char* argv0) {
  T number{};
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, number);
  if (ec != std::errc() || stop != end) {
    usage(argv0, "bad " + what + " value '" + value + "'");
  }
  return number;
}

}  // namespace fluxpower::tools
