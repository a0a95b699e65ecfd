#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/string_util.h"

namespace nomad {

Result<std::vector<Rating>> ParseRatingsText(const std::string& content,
                                             bool one_based) {
  std::vector<Rating> out;
  size_t pos = 0;
  int line_no = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = StripWhitespace(line);
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const auto fields = SplitFields(line, " \t,::");
    if (fields.size() < 3) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected 'user item rating'", line_no));
    }
    const auto u = ParseInt64(fields[0]);
    const auto i = ParseInt64(fields[1]);
    const auto v = ParseDouble(fields[2]);
    if (!u.ok()) return u.status();
    if (!i.ok()) return i.status();
    if (!v.ok()) return v.status();
    // Compared before the shift, which would overflow at INT64_MIN.
    const int64_t base = one_based ? 1 : 0;
    if (u.value() < base || i.value() < base) {
      return Status::InvalidArgument(
          StrFormat("line %d: negative index after base adjustment", line_no));
    }
    const int64_t row = u.value() - base;
    const int64_t col = i.value() - base;
    // Ids become int32 indices, and the matrix shape is max id + 1.
    constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max() - 1;
    if (row > kMaxId || col > kMaxId) {
      return Status::InvalidArgument(
          StrFormat("line %d: index above %lld", line_no,
                    static_cast<long long>(kMaxId)));
    }
    const float value = static_cast<float>(v.value());
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          StrFormat("line %d: rating is not a finite float", line_no));
    }
    out.push_back(
        Rating{static_cast<int32_t>(row), static_cast<int32_t>(col), value});
  }
  return out;
}

Result<SparseMatrix> LoadRatingsFile(const std::string& path, bool one_based) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  auto ratings = ParseRatingsText(content, one_based);
  if (!ratings.ok()) return ratings.status();
  int32_t rows = 0;
  int32_t cols = 0;
  for (const Rating& r : ratings.value()) {
    rows = std::max(rows, r.row + 1);
    cols = std::max(cols, r.col + 1);
  }
  return SparseMatrix::Build(rows, cols, std::move(ratings).value());
}

}  // namespace nomad
