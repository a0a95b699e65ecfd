#include "util/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nomad {

std::vector<std::string_view> SplitFields(std::string_view s,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < s.size()) {
    const size_t end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  const char* kWs = " \t\r\n";
  const size_t b = s.find_first_not_of(kWs);
  if (b == std::string_view::npos) return {};
  const size_t e = s.find_last_not_of(kWs);
  return s.substr(b, e - b + 1);
}

// Both parsers take the from_chars fast path where it reads the whole
// field, and otherwise parse the field again with strto*, so the accepted
// format and every error stay strto*'s.

Result<int64_t> ParseInt64(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  if (static_cast<ptrdiff_t>(s.size()) > kMaxNumberChars) {
    return Status::InvalidArgument("integer field too long");
  }
  const char* const last = s.data() + s.size();
  if (int64_t fast = 0; ScanInt64(s.data(), last, &fast) == last) return fast;
  char buf[kMaxNumberChars + 1];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf, &end, 10);
  if (errno == ERANGE) return Status::OutOfRange("integer out of range");
  if (end != buf + s.size()) {
    return Status::InvalidArgument("bad integer: '" + std::string(s) + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty float field");
  if (static_cast<ptrdiff_t>(s.size()) > kMaxNumberChars) {
    return Status::InvalidArgument("float field too long");
  }
  const char* const last = s.data() + s.size();
  if (double fast = 0; ScanDouble(s.data(), last, &fast) == last) return fast;
  char buf[kMaxNumberChars + 1];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (errno == ERANGE) return Status::OutOfRange("float out of range");
  if (end != buf + s.size()) {
    return Status::InvalidArgument("bad float: '" + std::string(s) + "'");
  }
  return v;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat(unit == 0 ? "%.0f %s" : "%.1f %s", v, kUnits[unit]);
}

std::string HumanCount(double count) {
  const char* kUnits[] = {"", "K", "M", "G", "T"};
  double v = count;
  int unit = 0;
  while (v >= 1000.0 && unit < 4) {
    v /= 1000.0;
    ++unit;
  }
  return StrFormat(unit == 0 ? "%.0f%s" : "%.2f%s", v, kUnits[unit]);
}

}  // namespace nomad
