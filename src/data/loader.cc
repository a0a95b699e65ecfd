#include "data/loader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <string_view>
#include <system_error>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"

namespace nomad {
namespace {

// Each parse thread takes at least this much text, so small inputs run as
// one chunk on the calling thread.
constexpr size_t kMinChunkBytes = size_t{1} << 20;

// StripWhitespace's set: the ends of a line are trimmed of these.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Fields are separated by runs of these ("1::2::5" is three fields).
bool IsSeparator(char c) {
  return c == ' ' || c == '\t' || c == ',' || c == ':';
}

// Number of '\n' bytes in [p, end), eight bytes at a time (std::count
// is a byte loop at -O2).
int64_t CountNewlines(const char* p, const char* end) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  int64_t n = 0;
  for (; end - p >= 8; p += 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= kOnes * '\n';  // newline bytes become zero
    // Bit 7 of each byte is set iff that byte is zero; no carry crosses a
    // byte, so this is exact.
    const uint64_t zero = ~(((w & kLow7) + kLow7) | w | kLow7);
    n += static_cast<int64_t>(((zero >> 7) * kOnes) >> 56);
  }
  for (; p < end; ++p) n += *p == '\n';
  return n;
}

// `status` (from ParseInt64/ParseDouble) with the line it was found on.
Status AtLine(int64_t line_no, const Status& status) {
  std::string msg = StrFormat("line %lld: %s", static_cast<long long>(line_no),
                              status.message().c_str());
  return status.code() == StatusCode::kOutOfRange
             ? Status::OutOfRange(std::move(msg))
             : Status::InvalidArgument(std::move(msg));
}

// The three leading fields of a rating line.
struct Fields {
  int64_t user = 0;
  int64_t item = 0;
  double value = 0;
};

// Skips separators, then reads one field in place with `scan`. False
// unless the whole field is the number that scan read.
template <typename T>
bool ScanField(const char** p, const char* e,
               const char* (*scan)(const char*, const char*, T*), T* out) {
  const char* q = *p;
  while (q < e && IsSeparator(*q)) ++q;
  const char* end = scan(q, e, out);
  if (end == nullptr || (end < e && !IsSeparator(*end))) return false;
  *p = end;
  return true;
}

// Reads the fields of the common line ("12 7 4.5") in place. Returns false
// for anything else, errors included, which ReadFields then decides.
bool ScanFields(const char* p, const char* e, Fields* f) {
  return ScanField(&p, e, ScanInt64, &f->user) &&
         ScanField(&p, e, ScanInt64, &f->item) &&
         ScanField(&p, e, ScanDouble, &f->value);
}

// Reads the fields of any line: split on every separator, then parsed
// with strtoll/strtod's rules.
Status ReadFields(std::string_view line, int64_t line_no, Fields* f) {
  const auto fields = SplitFields(line, " \t,:");
  if (fields.size() < 3) {
    return Status::InvalidArgument(
        StrFormat("line %lld: expected 'user item rating'",
                  static_cast<long long>(line_no)));
  }
  const auto u = ParseInt64(fields[0]);
  if (!u.ok()) return AtLine(line_no, u.status());
  const auto i = ParseInt64(fields[1]);
  if (!i.ok()) return AtLine(line_no, i.status());
  const auto v = ParseDouble(fields[2]);
  if (!v.ok()) return AtLine(line_no, v.status());
  *f = Fields{u.value(), i.value(), v.value()};
  return Status::OK();
}

// Parses one line (no '\n'). Sets *is_rating to false for a blank or
// comment line, which is not an error.
Status ParseLine(const char* p, const char* e, int64_t line_no, bool one_based,
                 Rating* out, bool* is_rating) {
  while (p < e && IsBlank(*p)) ++p;
  while (e > p && IsBlank(e[-1])) --e;
  *is_rating = p < e && *p != '#' && *p != '%';
  if (!*is_rating) return Status::OK();
  Fields f;
  if (!ScanFields(p, e, &f)) {
    Status status =
        ReadFields(std::string_view(p, static_cast<size_t>(e - p)), line_no, &f);
    if (!status.ok()) return status;
  }
  // Compared before the shift, which would overflow at INT64_MIN.
  const int64_t base = one_based ? 1 : 0;
  if (f.user < base || f.item < base) {
    return Status::InvalidArgument(
        StrFormat("line %lld: negative index after base adjustment",
                  static_cast<long long>(line_no)));
  }
  const int64_t row = f.user - base;
  const int64_t col = f.item - base;
  // Ids become int32 indices, and the matrix shape is max id + 1.
  constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max() - 1;
  if (row > kMaxId || col > kMaxId) {
    return Status::InvalidArgument(
        StrFormat("line %lld: index above %lld",
                  static_cast<long long>(line_no),
                  static_cast<long long>(kMaxId)));
  }
  const float value = static_cast<float>(f.value);
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        StrFormat("line %lld: rating is not a finite float",
                  static_cast<long long>(line_no)));
  }
  *out = Rating{static_cast<int32_t>(row), static_cast<int32_t>(col), value};
  return Status::OK();
}

// A run of whole lines. Its ratings go to its `slots` slots of the output,
// from `first_slot` on; `written` of them are used.
struct Chunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  int64_t first_line = 0;  // 0-based index of its first line in the text
  int64_t first_slot = 0;
  int64_t slots = 0;
  int64_t written = 0;
  Status status;  // the chunk's first error; parsing stops there
};

// Runs fn(k) for k in [0, n): n - 1 threads plus the calling thread, which
// also takes any chunk a thread could not be started for. An exception
// from fn is rethrown here once every thread has joined.
template <typename Fn>
void ForEachChunk(size_t n, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  auto run = [&fn, &errors](size_t k) {
    try {
      fn(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (size_t k = 1; k < n; ++k) {
    try {
      threads.emplace_back(run, k);
    } catch (const std::system_error&) {
      run(k);
    }
  }
  run(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Reads a whole file with one read into an exactly sized buffer (a file
// whose size stat does not know, such as a pipe, is read until EOF). A
// failed or short read is an IOError: fopen and open succeed on a
// directory, and only the read fails.
Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string text(sized ? static_cast<size_t>(st.st_size) : 1 << 16, '\0');
  size_t len = 0;
  int read_errno = 0;
  while (true) {
    if (len == text.size()) {
      if (sized) break;
      text.resize(2 * len);
    }
    const ssize_t n = ::read(fd, text.data() + len, text.size() - len);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) read_errno = errno;
    if (n <= 0) break;
    len += static_cast<size_t>(n);
  }
  ::close(fd);
  if (read_errno != 0) {
    return Status::IOError("cannot read " + path + ": " +
                           std::strerror(read_errno));
  }
  if (sized && len != text.size()) {
    return Status::IOError(StrFormat("short read of %s: %zu of %zu bytes",
                                     path.c_str(), len, text.size()));
  }
  text.resize(len);
  return text;
}

}  // namespace

// One pass over the text. Chunks are cut at newlines, their lines counted,
// and each chunk parses straight into its own slots of one presized
// vector; the slots of comment and blank lines are closed up at the end.
// Errors carry their line number, and the lowest line's error wins.
Result<std::vector<Rating>> ParseRatingsText(const std::string& text,
                                             bool one_based) {
  const size_t max_chunks =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t num_chunks =
      std::clamp<size_t>(text.size() / kMinChunkBytes, 1, max_chunks);
  std::vector<Chunk> chunks(num_chunks);
  const char* const text_end = text.data() + text.size();
  const char* cut = text.data();
  for (size_t k = 0; k < num_chunks; ++k) {
    // A chunk ends after the first newline past its even share.
    const char* at = text_end;
    if (k + 1 < num_chunks) {
      at = std::max(cut, text.data() + text.size() / num_chunks * (k + 1));
    }
    const void* nl = std::memchr(at, '\n', static_cast<size_t>(text_end - at));
    chunks[k].begin = cut;
    cut = nl == nullptr ? text_end : static_cast<const char*>(nl) + 1;
    chunks[k].end = cut;
  }
  std::vector<int64_t> lines(num_chunks);
  ForEachChunk(num_chunks, [&chunks, &lines](size_t k) {
    const Chunk& c = chunks[k];
    lines[k] = CountNewlines(c.begin, c.end);
    if (c.begin < c.end && c.end[-1] != '\n') ++lines[k];  // last, unended
  });
  // A slot per line, but no more than the chunk could hold of the shortest
  // rating line ("0 0 0\n", the last one maybe without its newline), so
  // that blank lines cannot inflate the vector past twice the text.
  int64_t total_lines = 0;
  int64_t total_slots = 0;
  for (size_t k = 0; k < num_chunks; ++k) {
    Chunk& c = chunks[k];
    c.first_line = total_lines;
    c.first_slot = total_slots;
    c.slots = std::min(lines[k], (c.end - c.begin + 1) / 6);
    total_lines += lines[k];
    total_slots += c.slots;
  }

  std::vector<Rating> out(static_cast<size_t>(total_slots));
  ForEachChunk(num_chunks, [&chunks, &out, one_based](size_t k) {
    Chunk& c = chunks[k];
    Rating* slot = out.data() + c.first_slot;
    int64_t line_no = c.first_line;
    for (const char* p = c.begin; p < c.end;) {
      const void* nl = std::memchr(p, '\n', static_cast<size_t>(c.end - p));
      const char* eol = nl == nullptr ? c.end : static_cast<const char*>(nl);
      bool is_rating = false;
      Status status = ParseLine(p, eol, ++line_no, one_based,
                                slot + c.written, &is_rating);
      if (!status.ok()) {
        c.status = std::move(status);
        return;
      }
      c.written += is_rating ? 1 : 0;
      NOMAD_DCHECK(c.written <= c.slots);
      p = eol + 1;
    }
  });

  size_t size = 0;
  for (const Chunk& c : chunks) {
    if (!c.status.ok()) return c.status;
    std::copy_n(out.begin() + c.first_slot, c.written, out.begin() + size);
    size += static_cast<size_t>(c.written);
  }
  out.resize(size);
  return out;
}

Result<SparseMatrix> LoadRatingsFile(const std::string& path, bool one_based) {
  std::vector<Rating> ratings;
  {
    auto text = ReadFile(path);
    if (!text.ok()) return text.status();
    auto parsed = ParseRatingsText(text.value(), one_based);
    if (!parsed.ok()) return parsed.status();
    ratings = std::move(parsed).value();
  }  // the text is freed before Build
  int32_t rows = 0;
  int32_t cols = 0;
  for (const Rating& r : ratings) {
    rows = std::max(rows, r.row + 1);
    cols = std::max(cols, r.col + 1);
  }
  return SparseMatrix::Build(rows, cols, std::move(ratings));
}

}  // namespace nomad
