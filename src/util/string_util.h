#ifndef NOMAD_UTIL_STRING_UTIL_H_
#define NOMAD_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace nomad {

/// Splits `s` on any of the characters in `delims`, dropping empty fields.
/// "1  2\t3" split on " \t" -> {"1", "2", "3"}.
std::vector<std::string_view> SplitFields(std::string_view s,
                                          std::string_view delims = " \t,");

/// Removes leading/trailing whitespace (space, tab, CR, LF).
std::string_view StripWhitespace(std::string_view s);

/// Longest field ParseInt64 and ParseDouble accept.
inline constexpr ptrdiff_t kMaxNumberChars = 63;

/// Parses a base-10 integer as strtoll does (optional sign, leading
/// whitespace). Rejects trailing garbage; OutOfRange past int64.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating point number as strtod does (optional sign, hex
/// floats, inf/nan). Rejects trailing garbage; OutOfRange on overflow,
/// underflow and inexact subnormal results.
Result<double> ParseDouble(std::string_view s);

// std::from_chars reads the common spellings ("-12", "4.5", "1e3") exactly
// as strtoll/strtod do, several times faster. It differs from them in what
// it rejects or reads short: a leading '+', leading whitespace, hex floats
// ("0x1p3" stops after the "0"), and subnormal results, which strtod
// reports as ERANGE but from_chars returns as values.

/// The fast path of ParseInt64: reads an integer at the start of [first,
/// last) with std::from_chars and returns the end of what it read, or
/// nullptr where strtoll could read it otherwise. A field that does not
/// end where this stopped must go through ParseInt64.
inline const char* ScanInt64(const char* first, const char* last,
                             int64_t* out) {
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr - first <= kMaxNumberChars ? ptr : nullptr;
}

/// The fast path of ParseDouble, as ScanInt64 is of ParseInt64: succeeds
/// only on finite values that are zero or normal.
inline const char* ScanDouble(const char* first, const char* last,
                              double* out) {
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  const double mag = std::fabs(*out);
  return ec == std::errc() && ptr - first <= kMaxNumberChars &&
                 std::isfinite(mag) &&
                 (mag == 0 || mag > std::numeric_limits<double>::min())
             ? ptr
             : nullptr;
}

/// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a byte count like "1.5 GiB".
std::string HumanBytes(uint64_t bytes);

/// Renders a count like "2.74G" / "99.1M".
std::string HumanCount(double count);

}  // namespace nomad

#endif  // NOMAD_UTIL_STRING_UTIL_H_
